package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"tps"
	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/fragstate"
	"tps/internal/telemetry"
	"tps/internal/telemetry/series"
	"tps/internal/trace"
)

// The traced run regenerates a workload's tables twice on fresh Runners:
// once plain, once with observers attached, all of them from this
// package's side of the public surface:
//
//   - a telemetry.Recorder event log gives each cell's queued, started and
//     finished times, its worker slot and its engine goroutine;
//   - a capturing result store gives each cell's Result;
//   - the series log gives translation-cache serves and accesses;
//   - every suite generator runs inside a forwarding sink that stamps its
//     first event, its main-phase announcement and its return.
//
// A generator-only replay into a null sink then prices the generator
// itself, so machine time is span minus generator time. The traced tables
// and Results must equal the plain ones byte for byte.

// cellObs is one engine cell as the traced run saw it.
type cellObs struct {
	key, workload, scheme     string
	gid                       uint64 // goroutine that started the cell
	queued, started, finished time.Time
	gens                      []*genObs
	res                       *tps.Result
}

// genObs is one generator call: one per functional cell, two per SMT cell.
type genObs struct {
	workload         string
	refs             uint64
	seed             int64
	gid, parent      uint64
	first, main, ret time.Time
	warmRefs         uint64
	mainRefs         uint64
	// Filled by the replay: generator-only time and counts.
	genWarm, genMain       time.Duration
	replayWarm, replayMain uint64
}

// collector receives the traced sweep's observations. Its methods are
// safe for concurrent use.
type collector struct {
	mu      sync.Mutex
	cells   map[string]*cellObs
	gens    []*genObs
	results map[string][]byte
	dedup   int
	serves  uint64 // translation-cache serves, from the series log
	access  uint64 // translations, from the series log
	errs    []error
}

func newCollector() *collector {
	return &collector{cells: map[string]*cellObs{}, results: map[string][]byte{}}
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

// events is the telemetry event log's writer. The engine emits each
// event synchronously on the goroutine doing the work, so the started
// event also names the cell's goroutine.
type events struct{ c *collector }

func (e events) Write(p []byte) (int, error) {
	now := time.Now()
	ev, err := telemetry.ParseEvent(bytes.TrimSpace(p))
	if err != nil {
		e.c.fail(fmt.Errorf("telemetry event: %w", err))
		return len(p), nil
	}
	var gid uint64
	if ev.Event == telemetry.EventStarted {
		gid, _ = goroutineIDs()
	}
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := c.cells[ev.Cell]
	if cell == nil && ev.Event != telemetry.EventDedupJoined {
		cell = &cellObs{key: ev.Cell, workload: ev.Workload, scheme: ev.Scheme}
		c.cells[ev.Cell] = cell
	}
	switch ev.Event {
	case telemetry.EventQueued:
		cell.queued = now
	case telemetry.EventStarted:
		cell.started, cell.gid = now, gid
	case telemetry.EventFinished, telemetry.EventFailed:
		cell.finished = now
	case telemetry.EventDedupJoined:
		c.dedup++
	}
	return len(p), nil
}

// capture is a result store that never hits and keeps what it is given.
type capture struct{ c *collector }

func (s capture) Get(string) ([]byte, bool, error) { return nil, false, nil }

func (s capture) Put(key string, data []byte) error {
	s.c.mu.Lock()
	s.c.results[key] = bytes.Clone(data)
	s.c.mu.Unlock()
	return nil
}

// seriesSink sums the series log's translation-cache counters.
type seriesSink struct{ c *collector }

func (s seriesSink) Write(p []byte) (int, error) {
	var serves, access uint64
	for _, line := range bytes.Split(bytes.TrimSpace(p), []byte("\n")) {
		rec, err := series.ParseRecord(line)
		if err != nil {
			s.c.fail(fmt.Errorf("series record: %w", err))
			return len(p), nil
		}
		serves += rec.Delta.TCServes
		access += rec.Delta.Accesses
	}
	s.c.mu.Lock()
	s.c.serves += serves
	s.c.access += access
	s.c.mu.Unlock()
	return len(p), nil
}

// wrap returns the generator wrapper that records one genObs per call.
func (c *collector) wrap(name string, run runFunc) runFunc {
	return func(sink trace.Sink, refs uint64, seed int64) error {
		g := &genObs{workload: name, refs: refs, seed: seed}
		g.gid, g.parent = goroutineIDs()
		err := run(&stampSink{next: sink, g: g}, refs, seed)
		g.ret = time.Now()
		c.mu.Lock()
		c.gens = append(c.gens, g)
		c.mu.Unlock()
		return err
	}
}

// stampSink forwards every event to the machine's sink, stamping the
// first event and the main-phase announcement and counting references
// per phase. It stamps the phase after forwarding it, so references the
// sink buffered before the announcement count as warm-up.
type stampSink struct {
	next    trace.Sink
	g       *genObs
	started bool
	inMain  bool
}

func (s *stampSink) begin() {
	if !s.started {
		s.started = true
		s.g.first = time.Now()
	}
}

func (s *stampSink) Mmap(size uint64) (addr.Virt, error) {
	s.begin()
	return s.next.Mmap(size)
}

func (s *stampSink) Munmap(base addr.Virt) error {
	s.begin()
	return s.next.Munmap(base)
}

func (s *stampSink) Ref(r trace.Ref) error {
	s.begin()
	if s.inMain {
		s.g.mainRefs++
	} else {
		s.g.warmRefs++
	}
	return s.next.Ref(r)
}

func (s *stampSink) Phase(name string) {
	trace.AnnouncePhase(s.next, name)
	if name == trace.MainPhase && !s.inMain {
		s.inMain = true
		s.g.main = time.Now()
	}
}

// nullSink is the replay's machine: it hands out disjoint addresses and
// counts references per phase.
type nullSink struct {
	next       addr.Virt
	warm, main uint64
	inMain     bool
	mainAt     time.Time
}

func (s *nullSink) Mmap(size uint64) (addr.Virt, error) {
	const align = 1 << 30
	if s.next == 0 {
		s.next = 1 << 40
	}
	base := s.next
	s.next += addr.Virt((size + align - 1) &^ (align - 1))
	return base, nil
}

func (s *nullSink) Munmap(addr.Virt) error { return nil }

func (s *nullSink) Ref(trace.Ref) error {
	if s.inMain {
		s.main++
	} else {
		s.warm++
	}
	return nil
}

func (s *nullSink) Phase(name string) {
	if name == trace.MainPhase && !s.inMain {
		s.inMain = true
		s.mainAt = time.Now()
	}
}

// replay re-runs a generator call alone into a null sink, timing its
// warm-up and main phases.
func replay(run runFunc, g *genObs) error {
	var s nullSink
	t0 := time.Now()
	if err := run(&s, g.refs, g.seed); err != nil {
		return err
	}
	end := time.Now()
	if s.mainAt.IsZero() {
		s.mainAt = end
	}
	g.genWarm, g.genMain = s.mainAt.Sub(t0), end.Sub(s.mainAt)
	g.replayWarm, g.replayMain = s.warm, s.main
	return nil
}

// cellView is a matched cell's derived spans.
type cellView struct {
	*cellObs
	id                 string
	first, main, ret   time.Time
	warmRefs, mainRefs uint64
	genWarm, genMain   time.Duration
}

func (v cellView) smt() bool { return len(v.gens) > 1 }

// warmSelf and mainSelf are the machine's share of each phase: the span
// minus the generator's replayed time.
func (v cellView) warmSelf() time.Duration { return v.main.Sub(v.first) - v.genWarm }
func (v cellView) mainSelf() time.Duration { return v.ret.Sub(v.main) - v.genMain }

// traced is the traced run's outcome.
type traced struct {
	plain, obs sweep
	metrics    map[string]float64
	problems   []string // failed self-checks
	notes      []string // premise and coverage remarks
}

// runTraced performs the plain and the observed sweep, the generator
// replay and the fragstate probe, and derives the per-layer metrics.
func runTraced(s spec, seed int64, spansPath string) traced {
	var out traced
	plainCol := newCollector()
	out.plain = runSweep(s, seed, observers{cfg: func(c *tps.FigureConfig) {
		c.Store = capture{plainCol}
	}})

	col := newCollector()
	rec := telemetry.New()
	rec.LogTo(telemetry.NewEventLog(events{col}))
	t0 := time.Now()
	out.obs = runSweep(s, seed, observers{
		wrap: col.wrap,
		cfg: func(c *tps.FigureConfig) {
			c.Telemetry = rec
			c.Store = capture{col}
			c.Series = series.NewLog(seriesSink{col})
		},
	})
	tEnd := time.Now()

	problem := func(format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	if out.obs.err == nil && out.obs.tables != out.plain.tables {
		problem("traced tables differ from the plain run's")
	}
	for _, err := range col.errs {
		problem("%v", err)
	}
	if len(col.results) != len(plainCol.results) {
		problem("traced run computed %d cells, plain run %d", len(col.results), len(plainCol.results))
	}
	for key, data := range col.results {
		if !bytes.Equal(data, plainCol.results[key]) {
			problem("cell %.12s: traced Result differs from the plain run's", key)
		}
	}

	// Price each generator call alone.
	runs := map[string]runFunc{}
	suite, err := s.suiteWith(nil)
	if err != nil {
		problem("%v", err)
	}
	for _, w := range suite {
		runs[w.Name] = w.Run
	}
	for _, g := range col.gens {
		if err := replay(runs[g.workload], g); err != nil {
			problem("replay %s: %v", g.workload, err)
			continue
		}
		if g.replayWarm != g.warmRefs || g.replayMain != g.mainRefs {
			problem("replay %s seed %d: %d+%d refs, traced cell saw %d+%d",
				g.workload, g.seed, g.replayWarm, g.replayMain, g.warmRefs, g.mainRefs)
		}
	}

	views, unmatched := matchCells(col)
	if unmatched > 0 {
		out.notes = append(out.notes, fmt.Sprintf(
			"%d generator calls matched no cell; their cells count in trace.unaccounted_frac", unmatched))
	}
	for _, v := range views {
		if data, ok := col.results[v.key]; ok {
			var res tps.Result
			if err := json.Unmarshal(data, &res); err != nil {
				problem("cell %.12s: result: %v", v.key, err)
				continue
			}
			v.res = &res
			if !v.smt() && len(v.gens) == 1 && res.Refs != v.mainRefs {
				problem("cell %s/%s: Result.Refs %d, generator emitted %d measured refs",
					v.workload, v.scheme, res.Refs, v.mainRefs)
			}
		}
	}

	churn := probeChurn()
	out.metrics = layerMetrics(views, col, churn, out.plain.wall, tEnd.Sub(t0))
	out.notes = append(out.notes, premises(s.name, out.metrics)...)

	if spansPath != "" {
		if err := writeSpans(spansPath, buildSpans(views, t0, tEnd)); err != nil {
			out.notes = append(out.notes, fmt.Sprintf("spans not written: %v", err))
		}
	}
	return out
}

// matchCells ties each generator call to the cell that made it: the
// latest cell started on the call's goroutine (functional cells) or on
// the goroutine that created it (SMT threads), then derives its spans.
// It also returns how many calls matched no cell.
func matchCells(col *collector) (views []*cellView, unmatched int) {
	byG := map[uint64][]*cellObs{}
	var cells []*cellObs
	for _, c := range col.cells {
		if c.started.IsZero() {
			continue // dedup joins and never-started cells
		}
		byG[c.gid] = append(byG[c.gid], c)
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].started.Before(cells[j].started) })
	for _, g := range col.gens {
		var owner *cellObs
		for _, id := range []uint64{g.gid, g.parent} {
			for _, c := range byG[id] {
				if !c.started.After(g.first) && (owner == nil || c.started.After(owner.started)) {
					owner = c
				}
			}
			if owner != nil {
				break
			}
		}
		if owner == nil {
			unmatched++
			continue
		}
		owner.gens = append(owner.gens, g)
	}
	views = make([]*cellView, 0, len(cells))
	for i, c := range cells {
		v := &cellView{cellObs: c, id: fmt.Sprintf("c%03d-%.8s", i, c.key)}
		for k, g := range c.gens {
			if k == 0 || g.first.Before(v.first) {
				v.first = g.first
			}
			gm := g.main
			if gm.IsZero() {
				gm = g.ret
			}
			if gm.After(v.main) { // SMT: measurement starts when both threads reach main
				v.main = gm
			}
			if g.ret.After(v.ret) {
				v.ret = g.ret
			}
			v.warmRefs += g.warmRefs
			v.mainRefs += g.mainRefs
			v.genWarm += g.genWarm
			v.genMain += g.genMain
		}
		views = append(views, v)
	}
	return views, unmatched
}

// probeChurn times fragstate's churn of a fresh 16 GB buddy allocator.
func probeChurn() time.Duration {
	t0 := time.Now()
	b := buddy.New(1 << 22)
	fragstate.PreFragment(fragstate.DefaultParams())(b)
	return time.Since(t0)
}

// buildSpans lays the matched cells out as spans relative to t0.
func buildSpans(views []*cellView, t0, tEnd time.Time) []span {
	ns := func(t time.Time) int64 { return t.Sub(t0).Nanoseconds() }
	spans := []span{{ID: "run", Name: "run", Start: 0, End: ns(tEnd)}}
	for _, v := range views {
		spans = append(spans, cellSpans(v, ns)...)
	}
	return spans
}

// cellSpans returns a cell's queue wait and cell span and, when its
// generator calls were matched, the cell's four children.
func cellSpans(v *cellView, ns func(time.Time) int64) []span {
	out := []span{
		{ID: v.id, Name: "queue", Parent: "run", Start: ns(v.queued), End: ns(v.started)},
		{ID: v.id, Name: "cell", Parent: "run", Start: ns(v.started), End: ns(v.finished)},
	}
	if len(v.gens) == 0 {
		return out
	}
	return append(out,
		span{ID: v.id, Name: "assembly", Parent: "cell", Start: ns(v.started), End: ns(v.first)},
		span{ID: v.id, Name: "warmup", Parent: "cell", Start: ns(v.first), End: ns(v.main)},
		span{ID: v.id, Name: "main", Parent: "cell", Start: ns(v.main), End: ns(v.ret)},
		span{ID: v.id, Name: "collect", Parent: "cell", Start: ns(v.ret), End: ns(v.finished)},
	)
}
