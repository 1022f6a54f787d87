package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"tps"
	"tps/internal/addr"
	"tps/internal/telemetry"
	"tps/internal/trace"
)

// workers is the engine's worker-slot count: one process, two slots, each
// taking its next cell only after the previous one finishes (a closed
// loop). It is fixed rather than taken from the host so that runs on
// hosts of different widths measure the same load.
const workers = 2

// sweep is one regeneration of a workload's tables.
type sweep struct {
	tables string // every table, rendered, in order
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
	cells  uint64 // cells the engine queued
	err    error
}

// observers are a sweep's optional hooks: wrap replaces each generator's
// Run, cfg adjusts the Runner's configuration.
type observers struct {
	wrap func(name string, run runFunc) runFunc
	cfg  func(*tps.FigureConfig)
}

// runSweep regenerates the spec's tables on a fresh Runner, so no cell is
// served from an earlier sweep's cache. wall and cpu span the first
// figure call to the last table rendered. Before the clock starts, the
// previous sweep's garbage is collected and its memory returned to the
// OS, so every sweep starts from the heap a fresh process would have.
func runSweep(s spec, seed int64, obs observers) sweep {
	debug.FreeOSMemory()
	suite, err := s.suiteWith(obs.wrap)
	if err != nil {
		return sweep{err: err}
	}
	cfg := tps.FigureConfig{
		Refs: s.refs, Seed: seed, Parallelism: workers, Suite: suite,
		Telemetry: telemetry.New(), // counts cells; no event log attached
	}
	if obs.cfg != nil {
		obs.cfg(&cfg)
	}
	var b strings.Builder
	c0 := cpuTime()
	t0 := time.Now()
	r := tps.NewRunner(cfg)
	for _, fig := range s.figures {
		t, ferr := fig(r)
		if ferr != nil {
			err = ferr
			break
		}
		b.WriteString(t.Render())
	}
	out := sweep{tables: b.String(), start: t0, wall: time.Since(t0), cpu: cpuTime() - c0, err: err}
	out.cells = cfg.Telemetry.Snapshot().CellsQueued
	return out
}

// probeSetup measures set-up time: from a fresh Runner until the first
// reference reaches a cell's machine. The first reference cancels the
// run, so a probe costs set-up plus the drain of the cells in flight.
func probeSetup(s spec, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var first time.Time
	hit := func() {
		mu.Lock()
		if first.IsZero() {
			first = time.Now()
			cancel()
		}
		mu.Unlock()
	}
	wrap := func(_ string, run runFunc) runFunc {
		return func(sink trace.Sink, refs uint64, seed int64) error {
			return run(&firstRefSink{next: sink, hit: hit}, refs, seed)
		}
	}
	sw := runSweep(s, seed, observers{
		wrap: wrap,
		cfg: func(c *tps.FigureConfig) {
			c.Context = ctx
			c.Warnf = func(string, ...any) {}
		},
	})
	mu.Lock()
	defer mu.Unlock()
	switch {
	case !first.IsZero():
		return first.Sub(sw.start), nil // errors after the cancel are the probe's own
	case sw.err != nil:
		return 0, fmt.Errorf("setup probe: %w", sw.err)
	default:
		return 0, errors.New("setup probe: no reference reached a machine")
	}
}

// firstRefSink reports the first reference and forwards every event.
type firstRefSink struct {
	next trace.Sink
	hit  func()
	seen bool
}

func (s *firstRefSink) Mmap(size uint64) (addr.Virt, error) { return s.next.Mmap(size) }
func (s *firstRefSink) Munmap(base addr.Virt) error         { return s.next.Munmap(base) }
func (s *firstRefSink) Phase(name string)                   { trace.AnnouncePhase(s.next, name) }

func (s *firstRefSink) Ref(r trace.Ref) error {
	if !s.seen {
		s.seen = true
		s.hit()
	}
	return s.next.Ref(r)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
