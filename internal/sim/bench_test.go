package sim

// BenchmarkRefLoop measures the steady-state cost of one simulated memory
// reference — the machine.refAs → vmm.Kernel.Access → mmu.Translate → TLB
// probe chain — per translation scheme. The reference pattern is
// pregenerated (no rand in the timed loop), so ns/op is ns per simulated
// reference through the production delivery path, directly comparable
// across commits with benchstat.
//
//	go test -run='^$' -bench=RefLoop -benchmem ./internal/sim

import (
	"sync/atomic"
	"testing"

	"tps/internal/addr"
	"tps/internal/scheme"
	"tps/internal/telemetry/series"
	"tps/internal/trace"
)

// benchMachine assembles a machine for the options and faults in a region
// so the timed loop measures steady state (no faults, no promotions). The
// footprint, pattern, and fault-in loop live in conformance.go
// (newSteadyMachine), shared with the scheme conformance suite.
func benchMachine(tb testing.TB, opts Options) (*machine, []trace.Ref) {
	tb.Helper()
	m, pat, err := newSteadyMachine(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m, pat
}

// benchRefLoop delivers the pattern through RefBatch in Batcher-sized
// chunks — the production delivery path — so ns/op is ns per simulated
// reference as sim.Run pays it.
func benchRefLoop(b *testing.B, opts Options) {
	m, pat := benchMachine(b, opts)
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := len(pat)
		if left := b.N - n; left < k {
			k = left
		}
		for off := 0; off < k; off += chunk {
			end := off + chunk
			if end > k {
				end = k
			}
			if err := m.RefBatch(pat[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		n += k
	}
}

// BenchmarkRefLoop covers every registered scheme, keyed by stable
// registry name so BENCH_*.json rows stay comparable across commits.
func BenchmarkRefLoop(b *testing.B) {
	for _, s := range scheme.Names() {
		b.Run(s, func(b *testing.B) { benchRefLoop(b, Options{Scheme: s}) })
	}
}

// BenchmarkRefLoopNoCache is the same loop with the software translation
// cache disabled — the before/after row for the PR 7 fast path.
func BenchmarkRefLoopNoCache(b *testing.B) {
	for _, s := range []string{"thp", "tps"} {
		b.Run(s, func(b *testing.B) { benchRefLoop(b, Options{Scheme: s, TransCache: -1}) })
	}
}

// BenchmarkRefLoopCycleModel includes the data-cache and OOO timing models
// (the Fig. 2/13/14 configuration), the most expensive per-ref path.
func BenchmarkRefLoopCycleModel(b *testing.B) {
	benchRefLoop(b, Options{Scheme: "thp", CycleModel: true})
}

// BenchmarkRefLoopSeries measures the epoch-sampling overhead: the same
// loop with a live series sampler at the conventional interval. Per
// batch the sampler costs one add and one compare; the probe itself
// (counter reads plus the census walk) amortizes over a full epoch. The
// bench_guard contract: within 5% of the plain BenchmarkRefLoop row.
func BenchmarkRefLoopSeries(b *testing.B) {
	for _, s := range []string{"thp", "tps"} {
		b.Run(s, func(b *testing.B) {
			benchRefLoop(b, Options{Scheme: s, SeriesEvery: series.DefaultEvery})
		})
	}
}

// BenchmarkRefLoopTelemetry measures the enabled-telemetry overhead: the
// same loop as BenchmarkRefLoop/TPS with the per-batch refs hook attached
// (one atomic add per 512 references — the whole hot-path cost of live
// metrics). Compare against BenchmarkRefLoop/TPS (and the archived
// BENCH_*.json): both variants must sit within run-to-run noise.
func BenchmarkRefLoopTelemetry(b *testing.B) {
	var refs atomic.Uint64
	b.Run("disabled", func(b *testing.B) {
		benchRefLoop(b, Options{Scheme: "tps"})
	})
	b.Run("enabled", func(b *testing.B) {
		benchRefLoop(b, Options{Scheme: "tps", OnRefs: func(n uint64) { refs.Add(n) }})
	})
}

// BenchmarkSMTRun measures the SMT co-runner scheduler end to end: one
// sim.Run of gcc with SMT on, so both siblings' generators, the handoff
// between them and the scheduler, and the machine are all timed. ns/ref
// is wall time per delivered reference (warm-up included, both siblings),
// comparable across commits at the same Refs.
//
//	go test -run='^$' -bench=SMTRun ./internal/sim
func BenchmarkSMTRun(b *testing.B) {
	w := catalogWorkload(b, "gcc")
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"thp", Options{Scheme: "thp"}},
		{"thp+cycle", Options{Scheme: "thp", CycleModel: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var refs uint64
			opts := c.opts
			opts.SMT, opts.Refs, opts.Seed = true, 200_000, 1
			opts.OnRefs = func(n uint64) { refs += n }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}

// BenchmarkFirstTouch measures the demand-fault path the warm-up init
// sweeps spend their time in: one op is one first write to a fresh 4 KB
// page of gups's 4 GB init region, delivered through RefBatch, so ns/op is
// ns per init page — the probe translation, the fault with its promotion
// cascade, and the retried translation that fills the TLBs. When a
// region is used up, a fresh machine (untimed) supplies the next one.
//
//	go test -run='^$' -bench=FirstTouch ./internal/sim
func BenchmarkFirstTouch(b *testing.B) {
	const region = 4 << 30 // gups's footprint, swept once at init
	for _, s := range scheme.Names() {
		b.Run(s, func(b *testing.B) {
			var (
				m    *machine
				next addr.Virt
				left int
			)
			refs := make([]trace.Ref, 0, 512)
			b.ResetTimer()
			for n := 0; n < b.N; {
				if left == 0 {
					b.StopTimer()
					var err error
					if m, err = newMachine(Options{Scheme: s, MemoryPages: 1 << 22}); err != nil {
						b.Fatal(err)
					}
					if next, err = m.Mmap(region); err != nil {
						b.Fatal(err)
					}
					left = region / addr.BasePageSize
					b.StartTimer()
				}
				k := min(cap(refs), b.N-n, left)
				refs = refs[:0]
				for i := 0; i < k; i++ {
					refs = append(refs, trace.Ref{Addr: next, Write: true})
					next += addr.BasePageSize
				}
				if err := m.RefBatch(refs); err != nil {
					b.Fatal(err)
				}
				n += k
				left -= k
			}
		})
	}
}
