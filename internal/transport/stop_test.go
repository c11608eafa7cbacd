package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// parkedReplica holds its Init step on the event loop until release is
// closed, standing in for a commit step that is still writing when the
// runtime is told to stop.
type parkedReplica struct {
	entered  chan struct{}
	release  chan struct{}
	finished atomic.Bool
}

func (r *parkedReplica) Init(protocol.Env) {
	close(r.entered)
	<-r.release
	r.finished.Store(true)
}
func (r *parkedReplica) OnMessage(types.NodeID, types.Message) {}
func (r *parkedReplica) OnTimer(types.TimerID)                 {}

// TestStopWaitsForInFlightStep: Stop must not return while a step is
// still running on the event loop — the caller closes the WAL next.
func TestStopWaitsForInFlightStep(t *testing.T) {
	rep := &parkedReplica{entered: make(chan struct{}), release: make(chan struct{})}
	rt := transport.New(transport.Config{Self: 0, DrainTimeout: 10 * time.Millisecond}, rep)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rep.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Init step never ran")
	}
	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a step was still running")
	case <-time.After(300 * time.Millisecond):
	}
	close(rep.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the step finished")
	}
	if !rep.finished.Load() {
		t.Fatal("Stop returned before the in-flight step finished")
	}
}

// selfStoppingReplica stops its own runtime from inside its Init step.
type selfStoppingReplica struct {
	rt   *transport.Runtime
	done chan struct{}
}

func (r *selfStoppingReplica) Init(protocol.Env) {
	r.rt.Stop()
	close(r.done)
}
func (r *selfStoppingReplica) OnMessage(types.NodeID, types.Message) {}
func (r *selfStoppingReplica) OnTimer(types.TimerID)                 {}

// TestStopFromInsideStepReturns: a step that stops its own runtime
// must not wait for itself.
func TestStopFromInsideStepReturns(t *testing.T) {
	rep := &selfStoppingReplica{done: make(chan struct{})}
	rep.rt = transport.New(transport.Config{Self: 0, DrainTimeout: 10 * time.Millisecond}, rep)
	if err := rep.rt.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rep.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop called from inside a step deadlocked")
	}
	// A second Stop from outside returns once the loop has exited.
	stopped := make(chan struct{})
	go func() {
		rep.rt.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop after an in-step Stop blocked")
	}
}

// TestStopWithoutStart: a runtime that never started has no event
// loop to wait for.
func TestStopWithoutStart(t *testing.T) {
	rt := transport.New(transport.Config{Self: 0, DrainTimeout: 10 * time.Millisecond}, &parkedReplica{})
	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on an unstarted runtime blocked")
	}
}
