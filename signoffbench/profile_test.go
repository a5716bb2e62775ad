package main

import (
	"bytes"
	"compress/gzip"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	const root = "/src/crve/internal/"
	sim := frame{"crve/internal/sim.(*Simulator).eval", root + "sim/sim.go"}
	main := frame{"main.main", "/src/crve/cmd/regress/main.go"}
	for _, c := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"kernel", []frame{sim, main}, "sim"},
		{"allocation charged to its caller", []frame{{"runtime.mallocgc", "/go/src/runtime/malloc.go"}, {"crve/internal/catg.(*Checker).observe", root + "catg/checker.go"}}, "catg.check"},
		{"stimulus", []frame{{"crve/internal/catg.GenerateOps", root + "catg/traffic.go"}}, "catg.bfm"},
		{"coverage model", []frame{{"crve/internal/catg.(*CoverageModel).SampleTransaction", root + "catg/covmodel.go"}}, "catg.cov"},
		{"construction", []frame{sim, {"crve/internal/core.buildBench", root + "core/core.go"}, {"crve/internal/core.RunTestCtx", root + "core/core.go"}}, "core.build"},
		{"closure of buildBench runs in the cycle loop", []frame{{"crve/internal/core.buildBench.func1", root + "core/core.go"}}, "core"},
		{"observer closure inlined into buildBench", []frame{{"crve/internal/core.buildBench.(*Observer).Attach.func1", root + "stba/observer.go"}, sim}, "stba"},
		{"recorder closure inlined into buildBench", []frame{{"crve/internal/core.buildBench.(*Recorder).Attach.func2", root + "vcd/record.go"}}, "vcd"},
		{"trimmed path", []frame{{"crve/internal/core.buildBench.(*Recorder).Attach.func1", "crve/internal/vcd/record.go"}}, "vcd"},
		{"no file name", []frame{{"crve/internal/bca.(*Node).step", ""}}, "bca"},
		{"GC worker", []frame{{"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, "runtime.gc"},
		{"package outside the layer list", []frame{{"crve/internal/nodespec.Config.WithDefaults", root + "nodespec/spec.go"}}, "other"},
		{"no crve frame", []frame{{"runtime.schedule", ""}, main}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCatgFilesCoverThePackage(t *testing.T) {
	files, err := filepath.Glob("../internal/catg/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no catg sources: %v", err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		if _, ok := catgFiles[base]; !ok {
			t.Errorf("catg/%s has no bfm/check/cov role in catgFiles", base)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 {
			t.Fatalf("sample with count %d", s.count)
		}
		for _, f := range s.stack {
			if f.fn == "crve/signoffbench.spinForProfile" || f.fn == "main.spinForProfile" {
				found = found || strings.HasSuffix(f.file, "profile_test.go")
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spinForProfile among %d samples", len(samples))
	}
	shares, total := cpuShares(samples)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if total == 0 || sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v over %d samples, want 100", sum, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted a non-gzip input")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f}) // sample field claiming 127 bytes, none present
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}
