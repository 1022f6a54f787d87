package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tps/internal/addr"
	"tps/internal/telemetry/series"
	"tps/internal/trace"
	"tps/internal/workload"
)

// smtRefs is the SMT tests' reference budget: each sibling's stream is
// 100_001 main references, a multiple of neither the 8-reference quantum
// nor the 512-reference batch, so a stream ends mid-quantum and mid-batch.
const smtRefs = 200_002

func catalogWorkload(tb testing.TB, name string) workload.Workload {
	tb.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("workload %q not in catalog", name)
	}
	return w
}

// TestSMTResultPinned pins the exact SMT interleave: the SHA-256 of each
// run's full Result rendering plus its epoch series. The figure goldens
// round to 0.1%, so a scheduler change that shifts the interleave by one
// reference can slip past them; it cannot slip past these literals. A
// deliberate change to the interleave must update them together.
func TestSMTResultPinned(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		opts     Options
		want     string
	}{
		// gcc maps many regions during warm-up, so mmaps interleave with
		// the co-runner's references.
		{"thp+cycle/gcc", "gcc", Options{Scheme: "thp", CycleModel: true},
			"dc8f212cf3d2fd89edd770ecf4193972c8b5209ed7e4db77ade2f64de8fa1060"},
		{"tps/xz", "xz", Options{Scheme: "tps"},
			"b6a3ccba97640449fe13171000cfb3b73179cf458ab821539aea01d2071212d2"},
		{"colt/xz", "xz", Options{Scheme: "colt"},
			"873eca2af1da14e28d4870eee85dfed985c82dea3206f7d82f6337adedd1f44c"},
		{"tps+series/gcc", "gcc", Options{Scheme: "tps", SeriesEvery: 1 << 14},
			"7726ad450f09fbcf2c515e593dba47acb44fec16ce4526ddf5d6dda6854a01ad"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.SMT, opts.Refs, opts.Seed = true, smtRefs, 1
			var b strings.Builder
			opts.OnSeries = func(points []series.Point, every uint64) {
				fmt.Fprintf(&b, "series every=%d\n", every)
				for _, p := range points {
					fmt.Fprintf(&b, "%+v\n", p)
				}
			}
			res, err := Run(catalogWorkload(t, c.workload), opts)
			if err != nil {
				t.Fatal(err)
			}
			rendering := fmt.Sprintf("%+v\n", res) + b.String()
			sum := sha256.Sum256([]byte(rendering))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("SMT result digest\n got %s\nwant %s\nrendering:\n%s", got, c.want, rendering)
			}
		})
	}
}

// warmupSink counts the references a generator emits before announcing
// its main phase.
type warmupSink struct {
	refs uint64
	main bool
}

func (s *warmupSink) Mmap(uint64) (addr.Virt, error) { return 0, nil }

func (s *warmupSink) Munmap(addr.Virt) error { return nil }

func (s *warmupSink) Ref(trace.Ref) error {
	if !s.main {
		s.refs++
	}
	return nil
}

func (s *warmupSink) Phase(name string) {
	if name == trace.MainPhase {
		s.main = true
	}
}

func warmupRefs(tb testing.TB, w workload.Workload, refs uint64, seed int64) uint64 {
	tb.Helper()
	s := &warmupSink{}
	if err := w.Run(s, refs, seed); err != nil {
		tb.Fatal(err)
	}
	if !s.main {
		tb.Fatalf("%s never announced its main phase", w.Name)
	}
	return s.refs
}

// TestSMTCancelJoinsProducers cancels an SMT run from its own telemetry
// hook once a fixed number of references has been delivered, so the
// cancel lands at a deterministic point rather than after a sleep. Both
// cancel points must return context.Canceled and leave no producer
// goroutine behind: one while both siblings are still warming up (gcc's
// warm-up interleaves its region mmaps with references), one once both
// are in the main phase.
func TestSMTCancelJoinsProducers(t *testing.T) {
	w := catalogWorkload(t, "gcc")
	const seed = 1
	// The scheduler runs sibling 0 on seed and sibling 1 on seed+1000,
	// each with half the reference budget.
	warm0 := warmupRefs(t, w, smtRefs/2, seed)
	warm1 := warmupRefs(t, w, smtRefs/2, seed+1000)
	points := []struct {
		name  string
		after uint64 // references delivered (both siblings) before cancel
	}{
		{"mid-warmup", min(warm0, warm1)},
		{"mid-main", warm0 + warm1 + smtRefs/4},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			runtime.GC()
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen uint64
			_, err := Run(w, Options{
				Scheme: "thp", SMT: true, Refs: smtRefs, Seed: seed,
				Context: ctx,
				OnRefs: func(n uint64) {
					if seen += n; seen >= p.after {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled SMT run after %d refs: err = %v, want context.Canceled", p.after, err)
			}
			// Run joins both producers before returning; allow the
			// runtime a moment to retire the exiting goroutines.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines after canceled SMT run: before=%d after=%d", before, n)
			}
		})
	}
}
