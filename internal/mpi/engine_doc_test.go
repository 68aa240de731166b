package mpi

import (
	"os"
	"strings"
	"testing"
)

// TestEngineDesignDocumented cross-checks the engine against DESIGN.md §10
// ("Simulator engine"), the way the obs taxonomy is cross-checked against
// OBSERVABILITY.md: the section must exist and must document the golden
// files that specify the engine, the rank scheduler and its blocking
// discipline, the throughput gate, and the determinism contract's total event order. This
// keeps the architecture document from silently drifting away from the
// code it describes.
func TestEngineDesignDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	text := string(doc)
	if !strings.Contains(text, "## 10. Simulator engine") {
		t.Fatalf("DESIGN.md is missing the '## 10. Simulator engine' section")
	}
	sect := text[strings.Index(text, "## 10. Simulator engine"):]
	for _, anchor := range []string{
		"`internal/mpi/testdata/engine_scenario_{8,64}.golden`",
		"`BenchmarkSimThroughput`",
		"(time, rank, seq)",
		"`sync.Pool`",
		"FailureDetectionLatency",
		"`Proc.Park`",
		"`Proc.Wake`",
		"TestScale8192HeatdisReplay",
	} {
		if !strings.Contains(sect, anchor) {
			t.Errorf("DESIGN.md §10 does not mention %s", anchor)
		}
	}
}
