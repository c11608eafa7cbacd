// Package tee models the Trusted Execution Environment the paper's
// trusted components run in (Intel SGX in the prototype, Sec. 5.1).
//
// The model captures exactly the guarantees and non-guarantees the
// protocol relies on (Sec. 3.1):
//
//   - integrity: code inside an Enclave cannot be altered and its keys
//     cannot be extracted — in this codebase, trusted state lives in
//     unexported fields reachable only through the trusted functions;
//   - no freshness: sealed state written to untrusted storage can be
//     rolled back by the adversary (VersionedStore lets tests and the
//     harness mount exactly that attack);
//   - cost: every trusted call pays an enclave-transition cost and
//     enclave (re)creation pays an initialization cost, charged to the
//     runtime's Meter so SGX overhead appears in measurements
//     (Sec. 5.4).
package tee

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/types"
)

// ErrNoBlob is returned by UnsealE when untrusted storage serves
// nothing for a name.
var ErrNoBlob = errors.New("tee: no sealed blob stored")

// CallCosts models SGX-related overheads charged to the virtual clock.
type CallCosts struct {
	// Ecall is the world-switch cost of entering a trusted function.
	Ecall time.Duration
	// Init is the cost of creating (or re-creating after reboot) the
	// enclave: EPC setup, measurement, attestation handshake.
	Init time.Duration
}

// DefaultCallCosts returns SGX costs calibrated to published
// measurements (ecall ≈ 8 µs; enclave creation ≈ 11 ms, matching the
// base of the paper's Table 2 initialization row).
func DefaultCallCosts() CallCosts {
	return CallCosts{Ecall: 8 * time.Microsecond, Init: 11 * time.Millisecond}
}

// Measurement identifies the enclave's code identity (MRENCLAVE).
type Measurement = types.Hash

// Enclave is the host handle to a trusted execution environment.
// Trusted components embed an *Enclave and call EnterCall at the top of
// every trusted function; the enclave charges the transition cost and
// tracks call counts for the overhead profiling experiments and the
// runtime metrics (ecall counts and modelled-cost totals are what the
// paper's Sec. 5.4 overhead breakdown is built from).
//
// All counters are atomic: trusted calls run on the node's event-loop
// goroutine while metric scrapers read concurrently.
type Enclave struct {
	measurement   Measurement
	machineSecret [32]byte
	meter         types.Meter
	costs         CallCosts
	store         SealedStore
	// sealer is the current epoch's sealing key; base is the
	// epoch-independent sealer reserved for the epoch marker itself
	// (the root that tells a rebooting enclave which epoch key to
	// derive); prev is the previous epoch's sealer, kept so a reboot
	// that interrupted a rotation can still read — and reseal — blobs
	// written just before the epoch advanced. All three are touched
	// only from the node's event-loop goroutine.
	sealer     *Sealer
	base       *Sealer
	prev       *Sealer
	epoch      atomic.Uint64
	configHash atomic.Value // types.Hash
	// epochErr records an authenticated epoch marker that failed to
	// decode at enclave creation (see EpochMarkerErr).
	epochErr   error
	disabled   bool
	observe    func(fn string)
	observeDur func(fn string, d time.Duration)

	calls     atomic.Uint64
	costNanos atomic.Int64

	callsMu    sync.Mutex
	callsByFn  map[string]*atomic.Uint64
	fnOrder    []string
	seals      atomic.Uint64
	unseals    atomic.Uint64
	unsealFail atomic.Uint64
}

// Config configures an enclave.
type Config struct {
	// Measurement is the code identity; enclaves running the same
	// trusted components share it.
	Measurement Measurement
	// MachineSecret models the per-CPU sealing root; sealing keys are
	// derived from it and the measurement.
	MachineSecret [32]byte
	// Meter receives cost charges. Nil means costs are ignored.
	Meter types.Meter
	// Costs are the transition/initialization costs.
	Costs CallCosts
	// Store is the untrusted storage sealed blobs are written to. Nil
	// installs a fresh honest VersionedStore.
	Store SealedStore
	// Disabled turns the enclave into a pass-through with zero cost,
	// modelling the Achilles-C variant that runs trusted components
	// outside SGX (Sec. 5.4). Integrity bookkeeping still works so the
	// same code runs unmodified.
	Disabled bool
	// Observe, when non-nil, receives the name of every trusted
	// function entered (used to feed the protocol event tracer).
	Observe func(fn string)
	// ObserveDuration, when non-nil, receives each trusted function's
	// wall-clock duration when its EnterCall exit closure runs (used to
	// feed the span tracer's tee-ecall stage). When nil, EnterCall
	// returns a shared no-op closure and measures nothing.
	ObserveDuration func(fn string, d time.Duration)
}

// New creates an enclave and charges its initialization cost.
func New(cfg Config) *Enclave {
	m := cfg.Meter
	if m == nil {
		m = types.NopMeter{}
	}
	st := cfg.Store
	if st == nil {
		st = NewVersionedStore()
	}
	e := &Enclave{
		measurement:   cfg.Measurement,
		machineSecret: cfg.MachineSecret,
		meter:         m,
		costs:         cfg.Costs,
		store:         st,
		sealer:        NewSealer(cfg.MachineSecret, cfg.Measurement),
		base:          NewSealer(cfg.MachineSecret, cfg.Measurement),
		disabled:      cfg.Disabled,
		observe:       cfg.Observe,
		observeDur:    cfg.ObserveDuration,
		callsByFn:     make(map[string]*atomic.Uint64),
	}
	e.configHash.Store(types.Hash{})
	e.restoreEpoch()
	if !e.disabled {
		m.Charge(e.costs.Init)
		e.costNanos.Add(int64(e.costs.Init))
	}
	return e
}

// epochMarkerName is the sealed-store key of the epoch marker: the one
// blob sealed under the epoch-independent base key, naming the current
// configuration epoch and its config hash.
const epochMarkerName = "achilles-epoch-marker"

// epochMarker is the sealed attestation of the enclave's configuration
// epoch. Writing it is the single atomic commit point of a rotation:
// every epoch key is recomputable from (machine secret, measurement,
// epoch), so a kill -9 on either side of the write leaves a fully
// recoverable state.
type epochMarker struct {
	Epoch      uint64
	ConfigHash types.Hash
}

// epochMarkerKind is the sealed epoch marker's record kind (the gob
// marker of pre-binary-codec builds had no kind byte). Layout:
// [kind][u64 Epoch][32-byte ConfigHash].
const epochMarkerKind = byte(2)

func (m *epochMarker) encode() []byte {
	b := make([]byte, 0, 1+8+32)
	b = append(b, epochMarkerKind)
	b = types.WireAppendU64(b, m.Epoch)
	return types.WireAppendHash(b, m.ConfigHash)
}

func decodeEpochMarker(blob []byte) (epochMarker, error) {
	var m epochMarker
	if len(blob) == 0 || blob[0] != epochMarkerKind {
		return m, fmt.Errorf("tee: sealed epoch marker: %w", types.ErrUnsupportedRecord)
	}
	r := types.NewWireReader(blob[1:])
	m.Epoch, m.ConfigHash = r.U64(), r.Hash()
	if r.Err() || r.Len() != 0 {
		return m, fmt.Errorf("tee: sealed epoch marker: %w", types.ErrUnsupportedRecord)
	}
	return m, nil
}

// restoreEpoch re-derives the epoch-bound sealing keys from the sealed
// epoch marker at enclave (re-)creation. A missing or corrupt marker
// leaves the enclave at epoch 0; a rolled-back marker yields old-epoch
// keys under which current blobs fail loudly with StaleEpochError —
// detectable, never silently decoded. An authenticated marker that
// does not decode also leaves epoch 0, and is reported by
// EpochMarkerErr so the host can distrust its sealed state.
func (e *Enclave) restoreEpoch() {
	sealed := e.store.Get(epochMarkerName)
	if sealed == nil {
		return
	}
	blob, err := e.base.Unseal(sealed)
	if err != nil {
		e.unsealFail.Add(1)
		return
	}
	m, err := decodeEpochMarker(blob)
	if err != nil {
		e.epochErr = err
		return
	}
	e.epoch.Store(m.Epoch)
	e.configHash.Store(m.ConfigHash)
	e.sealer = NewSealerAt(e.machineSecret, e.measurement, m.Epoch)
	if m.Epoch > 0 {
		e.prev = NewSealerAt(e.machineSecret, e.measurement, m.Epoch-1)
	}
}

// AdvanceEpoch rotates the enclave's sealing key to a new configuration
// epoch and seals the (epoch, config hash) marker. Epochs are
// monotonic; re-advancing to the current epoch with the same hash is an
// idempotent no-op (reboot replay).
func (e *Enclave) AdvanceEpoch(epoch uint64, configHash types.Hash) error {
	defer e.EnterCall("TEEadvanceEpoch")()
	cur := e.epoch.Load()
	if epoch == cur && configHash == e.EpochConfigHash() {
		return nil
	}
	if epoch <= cur {
		return fmt.Errorf("tee: epoch %d does not advance current epoch %d", epoch, cur)
	}
	m := epochMarker{Epoch: epoch, ConfigHash: configHash}
	e.seals.Add(1)
	e.store.Put(epochMarkerName, e.base.Seal(m.encode()))
	e.epochErr = nil
	e.prev = e.sealer
	e.sealer = NewSealerAt(e.machineSecret, e.measurement, epoch)
	e.epoch.Store(epoch)
	e.configHash.Store(configHash)
	return nil
}

// EpochMarkerErr reports an epoch marker that authenticated at enclave
// creation but could not be decoded (types.ErrUnsupportedRecord) —
// sealed by a build with another format. The enclave then runs at
// epoch 0, so blobs sealed under a later epoch key are unreadable;
// callers must treat their sealed state as untrustworthy rather than
// absent. Nil once an AdvanceEpoch has sealed a readable marker.
func (e *Enclave) EpochMarkerErr() error { return e.epochErr }

// Epoch returns the configuration epoch the enclave's sealing key is
// bound to.
func (e *Enclave) Epoch() uint64 { return e.epoch.Load() }

// EpochConfigHash returns the config hash sealed at the last epoch
// activation (zero at epoch 0 before any reconfiguration).
func (e *Enclave) EpochConfigHash() types.Hash {
	h, _ := e.configHash.Load().(types.Hash)
	return h
}

// noopExit is the shared exit closure returned when no duration
// observer is installed, so the untraced hot path allocates nothing.
var noopExit = func() {}

// EnterCall charges one trusted-call transition attributed to the
// named trusted function and returns the exit closure the trusted
// function defers (`defer e.EnterCall(fn)()`). The closure stamps the
// call's wall-clock duration into the configured ObserveDuration hook;
// without one it is a shared no-op.
func (e *Enclave) EnterCall(fn string) func() {
	e.calls.Add(1)
	e.fnCounter(fn).Add(1)
	if !e.disabled {
		e.meter.Charge(e.costs.Ecall)
		e.costNanos.Add(int64(e.costs.Ecall))
	}
	if e.observe != nil {
		e.observe(fn)
	}
	if e.observeDur == nil {
		return noopExit
	}
	t0 := time.Now()
	return func() { e.observeDur(fn, time.Since(t0)) }
}

func (e *Enclave) fnCounter(fn string) *atomic.Uint64 {
	e.callsMu.Lock()
	defer e.callsMu.Unlock()
	c := e.callsByFn[fn]
	if c == nil {
		c = &atomic.Uint64{}
		e.callsByFn[fn] = c
		e.fnOrder = append(e.fnOrder, fn)
	}
	return c
}

// Calls returns the number of trusted calls made so far (used by the
// overhead-profiling experiments).
func (e *Enclave) Calls() uint64 { return e.calls.Load() }

// CallCounts returns the per-trusted-function call counts, in first-
// call order.
func (e *Enclave) CallCounts() (fns []string, counts []uint64) {
	e.callsMu.Lock()
	defer e.callsMu.Unlock()
	fns = append([]string(nil), e.fnOrder...)
	counts = make([]uint64, len(fns))
	for i, fn := range fns {
		counts[i] = e.callsByFn[fn].Load()
	}
	return fns, counts
}

// ModelledCost returns the total enclave cost (initialization plus
// transitions) charged to the meter so far — the modelled share of the
// paper's SGX overhead (Sec. 5.4).
func (e *Enclave) ModelledCost() time.Duration { return time.Duration(e.costNanos.Load()) }

// SealStats returns the number of Seal calls, Unseal calls, and Unseal
// failures (forged or corrupted blobs — rollback *detection* is
// impossible here, which is exactly the gap Achilles' recovery
// protocol closes; failures indicate tampering beyond replay).
func (e *Enclave) SealStats() (seals, unseals, unsealFailures uint64) {
	return e.seals.Load(), e.unseals.Load(), e.unsealFail.Load()
}

// Measurement returns the enclave's code identity.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Meter exposes the enclave's meter so trusted components can charge
// internal work (e.g. counter device latency).
func (e *Enclave) Meter() types.Meter { return e.meter }

// Seal encrypts and authenticates blob under the enclave's sealing key
// and writes it to untrusted storage under name. Freshness is NOT
// guaranteed: the store may later return any previously sealed version.
func (e *Enclave) Seal(name string, blob []byte) {
	e.seals.Add(1)
	e.store.Put(name, e.sealer.Seal(blob))
}

// Unseal reads name from untrusted storage and decrypts it. It returns
// false if nothing was stored or the blob fails authentication (i.e.
// was forged or corrupted — the adversary can replay but not forge).
// Rotation-aware callers use UnsealE for the typed error.
func (e *Enclave) Unseal(name string) ([]byte, bool) {
	blob, err := e.UnsealE(name)
	return blob, err == nil
}

// UnsealE is Unseal with typed errors: ErrNoBlob when nothing is
// stored, *StaleEpochError when the blob was sealed under another
// epoch's key, ErrSealCorrupt on forgery or corruption.
func (e *Enclave) UnsealE(name string) ([]byte, error) {
	e.unseals.Add(1)
	sealed := e.store.Get(name)
	if sealed == nil {
		e.unsealFail.Add(1)
		return nil, ErrNoBlob
	}
	blob, err := e.sealer.Unseal(sealed)
	if err != nil {
		e.unsealFail.Add(1)
	}
	return blob, err
}

// UnsealPrev attempts to open name with the PREVIOUS epoch's key. It is
// the explicit grace path for rotation atomicity: a crash between the
// epoch-marker write and the resealing of dependent blobs leaves those
// blobs one epoch behind, and the rebooting owner reads them here and
// immediately reseals under the current key. Blobs older than one epoch
// stay unreadable.
func (e *Enclave) UnsealPrev(name string) ([]byte, error) {
	if e.prev == nil {
		return nil, ErrNoBlob
	}
	e.unseals.Add(1)
	sealed := e.store.Get(name)
	if sealed == nil {
		e.unsealFail.Add(1)
		return nil, ErrNoBlob
	}
	blob, err := e.prev.Unseal(sealed)
	if err != nil {
		e.unsealFail.Add(1)
	}
	return blob, err
}

// Store returns the enclave's untrusted storage, through which tests
// and the fault harness mount rollback attacks.
func (e *Enclave) Store() SealedStore { return e.store }

// Attest produces an attestation report binding data (e.g. a public
// key generated inside the enclave) to the enclave's measurement AND
// its current configuration epoch: a peer can thus demand proof that
// the attesting enclave runs the expected code under the expected
// membership config hash. This stands in for SGX remote attestation,
// which the paper uses to build the PKI without a trusted third party
// (Sec. 4.5).
func (e *Enclave) Attest(data []byte) Report {
	return Report{
		Measurement: e.measurement,
		Epoch:       e.epoch.Load(),
		ConfigHash:  e.EpochConfigHash(),
		Data:        append([]byte(nil), data...),
	}
}

// Report is a (modelled) remote-attestation report.
type Report struct {
	Measurement Measurement
	// Epoch and ConfigHash bind the report to the configuration sealed
	// at the enclave's last epoch activation.
	Epoch      uint64
	ConfigHash types.Hash
	Data       []byte
}

// VerifyReport checks that a report was produced by an enclave with the
// expected measurement.
func VerifyReport(r Report, expected Measurement) bool {
	return r.Measurement == expected
}

// VerifyReportConfig additionally checks the report's configuration
// binding: the attesting enclave must run the expected epoch under the
// expected config hash.
func VerifyReportConfig(r Report, expected Measurement, epoch uint64, configHash types.Hash) bool {
	return r.Measurement == expected && r.Epoch == epoch && r.ConfigHash == configHash
}
