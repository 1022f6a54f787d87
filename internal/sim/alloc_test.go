package sim

// Allocation regression test extending the mmu package's
// TestTranslateSteadyStateAllocs contract up the delivery path: the
// steady-state RefBatch flow — the loop every cell spends its life in —
// must not allocate, with the telemetry hook absent AND with it attached.
// Telemetry compiled in but disabled (OnRefs nil) must be exactly the
// unobserved path; enabled, its cost is one callback per 512-reference
// batch, still allocation-free.

import (
	"sync/atomic"
	"testing"

	"tps/internal/addr"
	"tps/internal/scheme"
	"tps/internal/trace"
)

func allocsPerBatch(t *testing.T, opts Options) float64 {
	t.Helper()
	m, pat := benchMachine(t, opts)
	const chunk = 512
	off := 0
	return testing.AllocsPerRun(200, func() {
		end := off + chunk
		if end > len(pat) {
			off, end = 0, chunk
		}
		if err := m.RefBatch(pat[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	})
}

func TestRefBatchSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint")
	}
	var refs atomic.Uint64
	cases := []struct {
		name   string
		onRefs func(uint64)
	}{
		{"telemetry-disabled", nil},
		{"telemetry-enabled", func(n uint64) { refs.Add(n) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, name := range []string{"base4k", "tps"} {
				sch, _ := scheme.Lookup(name)
				t.Run(sch.Label(), func(t *testing.T) {
					got := allocsPerBatch(t, Options{Scheme: name, OnRefs: c.onRefs})
					if got != 0 {
						t.Fatalf("steady-state RefBatch allocates %.2f allocs/op, want 0", got)
					}
				})
			}
		})
	}
	if refs.Load() == 0 {
		t.Error("enabled hook never observed a batch")
	}
}

// TestRefBatchSteadyStateAllocsVariants extends the zero-alloc contract to
// the translation-cache variants: disabled (the full modeled hierarchy on
// every reference) and undersized (constant eviction).
func TestRefBatchSteadyStateAllocsVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint per variant")
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"cache-disabled", Options{Scheme: "tps", TransCache: -1}},
		{"cache-small", Options{Scheme: "tps", TransCache: 256}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := allocsPerBatch(t, v.opts)
			if got != 0 {
				t.Fatalf("steady-state RefBatch allocates %.2f allocs/op, want 0", got)
			}
		})
	}
}

// TestSMTSinkSteadyStateAllocs: an SMT sibling's sink hands batches,
// mmap requests and phase markers to the scheduler without allocating —
// batches go through the thread's two recycled buffers and mmap results
// through its one reply channel.
func TestSMTSinkSteadyStateAllocs(t *testing.T) {
	th := &smtThread{
		events: make(chan smtEvent),
		reply:  make(chan addr.Virt, 1),
		quit:   make(chan struct{}),
	}
	scheduled := make(chan struct{})
	go func() { // a stand-in scheduler: consume every event, answer mmaps
		defer close(scheduled)
		for ev := range th.events {
			if ev.kind == smtMmap {
				th.reply <- addr.Virt(ev.size)
			}
		}
	}()
	batch := make([]trace.Ref, 512)
	got := testing.AllocsPerRun(200, func() {
		if err := th.RefBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := th.Mmap(addr.BasePageSize); err != nil {
			t.Fatal(err)
		}
		th.Phase(trace.MainPhase)
	})
	close(th.events)
	<-scheduled
	if got != 0 {
		t.Fatalf("SMT sink allocates %.2f allocs per batch+mmap+phase, want 0", got)
	}
}
