package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// span is one traced interval. All spans of a cell share the cell's ID;
// Parent names the span that caused this one within the same ID, or is
// "run" for top-level spans.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced sweep began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// interval is a closed-open [start, end) stretch of host time in ns.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = lo
	for _, iv := range clipped {
		if iv.end <= reach {
			continue
		}
		total += iv.end - max(iv.start, reach)
		reach = iv.end
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return parent.dur() - covered(parent.Start, parent.End, ivs)
}

// underused returns the time, within busy's overall extent, during which
// at least one but fewer than slots intervals are open: one worker slot
// running while another idles.
func underused(busy []interval, slots int) time.Duration {
	type edge struct {
		t     int64
		delta int
	}
	edges := make([]edge, 0, 2*len(busy))
	for _, iv := range busy {
		edges = append(edges, edge{iv.start, +1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	var total int64
	open := 0
	for i, e := range edges {
		if i > 0 && open > 0 && open < slots {
			total += e.t - edges[i-1].t
		}
		open += e.delta
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSONL, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goroutineIDs returns the calling goroutine's ID and the ID of the
// goroutine that created it (0 when unknown), parsed from the runtime's
// stack header and its "created by ... in goroutine N" trailer. The
// traced run uses them to tie a generator call to the engine cell that
// made it: a functional cell calls its generator on the cell's own
// goroutine, an SMT cell on goroutines the cell's goroutine starts.
func goroutineIDs() (self, parent uint64) {
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	if f := bytes.Fields(buf); len(f) > 1 {
		self, _ = strconv.ParseUint(string(f[1]), 10, 64)
	}
	const marker = "in goroutine "
	if i := bytes.LastIndex(buf, []byte(marker)); i >= 0 {
		rest := buf[i+len(marker):]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			rest = rest[:j]
		}
		parent, _ = strconv.ParseUint(string(bytes.TrimSpace(rest)), 10, 64)
	}
	return self, parent
}
