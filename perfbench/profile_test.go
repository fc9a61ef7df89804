package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"ninjagap/internal/exec.(*threadCtx).loop":           "ninjagap/internal/exec",
		"ninjagap/internal/kernels.cachedInputs[...]":        "ninjagap/internal/kernels",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/atomic.(*Uint32).Load":             "runtime",
		"runtime/pprof.(*profileBuilder).appendLocsForStack": "runtime/pprof",
		"encoding/json.(*encodeState).marshal":               "encoding/json",
		"memeqbody":                                          "runtime",
		"main.main":                                          "main",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

var spinSink float64

func TestPackageCPUReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	byPkg, total, err := packageCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %d", total)
	}
	var sum int64
	for _, v := range byPkg {
		sum += v
	}
	if sum != total {
		t.Fatalf("package times sum to %d, total %d", sum, total)
	}
	if byPkg["ninjagap/perfbench"] == 0 {
		t.Fatalf("spin loop not attributed to the test package: %v", byPkg)
	}
}
