package crashsweep

import (
	"runtime"
	"testing"
	"time"

	"repro/ssp"
)

// BenchmarkTrapPoint splits a trap point's host cost by step, per backend:
// every trap point of MakeScript(1000003, 12) on the sweep's machine, run
// as the repository benchmark's crash-sweep loop runs it — build (new_ns),
// run to the power failure (run_ns), recover in place (recover_ns), map the
// script's pages again and check (verify_ns) — and the heap bytes a point
// allocates, construction included (B/point). Each iteration sweeps every
// point once. A point allocates 46-54 KB: about 32 KB to build and 15-21 KB
// to run, recover and verify. On a 2-CPU host shared with other load, run +
// recover + verify take 47-65 µs of a point, against 58-75 µs while the
// logging baselines kept map write sets, the page-table rebuild read every
// PTE and the oracle walked every set of each touched directory slot
// (recover_ns 5-12 µs, against 7-18 µs). A point allocated 49-54 KB then,
// 98-108 KB (69-74 KB to build) while NVRAM was backed by whole 4 KiB pages,
// way predictors were built full size and cache tags were 64 bits wide, and
// 157-166 KB while each cache level allocated every way of a set at its
// first fill. A CPU or memory profile of this benchmark is where a trap
// point's host cost is split further.
//
//	go test -run '^$' -bench TrapPoint -benchtime 20x ./internal/crashsweep
func BenchmarkTrapPoint(b *testing.B) {
	sc := MakeScript(1000003, 12)
	for _, backend := range ssp.Backends() {
		b.Run(backend.String(), func(b *testing.B) {
			cfg := Config(backend)
			writes := scriptWrites(cfg, sc)
			var step [4]time.Duration
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := int64(0); k <= writes; k++ {
					t0 := time.Now()
					m := ssp.MustNew(cfg)
					t1 := time.Now()
					m.Mem().SetWriteTrap(k)
					committed, boundary := RunScript(m, sc)
					m.Mem().SetWriteTrap(-1)
					t2 := time.Now()
					if err := m.Recover(); err != nil {
						b.Fatalf("trap %d: recovery: %v", k, err)
					}
					t3 := time.Now()
					m.Heap().EnsureMapped(nil, 1, sc.lastPage(1))
					if err := Verify(m, committed, boundary); err != nil {
						b.Fatalf("trap %d: %v", k, err)
					}
					t4 := time.Now()
					step[0] += t1.Sub(t0)
					step[1] += t2.Sub(t1)
					step[2] += t3.Sub(t2)
					step[3] += t4.Sub(t3)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			points := float64(b.N) * float64(writes+1)
			for i, name := range []string{"new_ns", "run_ns", "recover_ns", "verify_ns"} {
				b.ReportMetric(float64(step[i].Nanoseconds())/points, name)
			}
			b.ReportMetric(float64(ms.TotalAlloc-before)/points, "B/point")
		})
	}
}

// BenchmarkRestore is the host cost of booting a machine from a crash image,
// per backend: the sweep's machine runs MakeScript(1000003, 12) and crashes
// once, and each iteration restores that one image — what a restore per
// in-flight subset of a cut, or per corrupt image of a fuzz input, pays.
//
//	go test -run '^$' -bench Restore -benchmem ./internal/crashsweep
func BenchmarkRestore(b *testing.B) {
	for _, backend := range ssp.Backends() {
		b.Run(backend.String(), func(b *testing.B) {
			cfg := Config(backend)
			m := ssp.MustNew(cfg)
			RunScript(m, MakeScript(1000003, 12))
			img := m.Crash()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if restoreSink, err = ssp.Restore(cfg, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// restoreSink keeps BenchmarkRestore's machines reachable.
var restoreSink *ssp.Machine
