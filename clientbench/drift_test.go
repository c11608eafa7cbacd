package main

import (
	"bufio"
	"os/exec"
	"strings"
	"testing"
)

// TestWiringMatchesNodeDefaults fails when achilles-node's shipped flag
// defaults drift from the wiring the benchmark pins: the benchmark
// claims to measure the node as shipped.
func TestWiringMatchesNodeDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds achilles-node")
	}
	out, err := exec.Command("go", "run", "achilles/cmd/achilles-node", "-h").CombinedOutput()
	if err != nil {
		// -h exits 0 with the usage on stderr; anything else is a failure.
		t.Fatalf("achilles-node -h: %v\n%s", err, out)
	}
	defaults := parseDefaults(string(out))
	for name, want := range wiring {
		got, ok := defaults[name]
		if !ok {
			t.Errorf("achilles-node has no -%s flag", name)
			continue
		}
		if got != want {
			t.Errorf("-%s: achilles-node default %q, benchmark pins %q", name, got, want)
		}
	}
}

// parseDefaults reads flag.PrintDefaults output into name → default.
// Flags printed without "(default ...)" have their type's zero value.
func parseDefaults(usage string) map[string]string {
	out := make(map[string]string)
	var name, kind string
	flush := func(def string) {
		if name == "" {
			return
		}
		if def == "" {
			switch kind {
			case "", "bool":
				def = "false"
			case "string":
				def = ""
			case "duration":
				def = "0s"
			default:
				def = "0"
			}
		}
		out[name] = def
	}
	sc := bufio.NewScanner(strings.NewReader(usage))
	var def string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "  -") {
			flush(def)
			def = ""
			fields := strings.Fields(strings.TrimPrefix(line, "  -"))
			name, kind = fields[0], ""
			if len(fields) > 1 {
				kind = fields[1]
			}
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 {
			def = strings.TrimSuffix(line[i+len("(default "):], ")")
			def = strings.Trim(def, `"`)
		}
	}
	flush(def)
	return out
}
