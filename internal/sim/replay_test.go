package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tps/internal/scheme"
	"tps/internal/trace"
	"tps/internal/workload"
)

// TestTraceReplayMatchesDirectRun is the differential check behind trace
// replay: a workload dumped to a trace file and replayed through Run as a
// workload.FromTrace must give a Result identical to the direct run's, for
// every registered scheme, with the cycle model off and on. Offsets in the
// trace are region-relative and mmaps replay in order, so the replayed
// kernel lays out the same regions and sees the same references, flags,
// gaps and phase marker. (gups, mcf, graph500 and omnetpp hold too, but
// their traces run to ~20 MB each; three workloads keep this fast.)
func TestTraceReplayMatchesDirectRun(t *testing.T) {
	const refs, seed = 20_000, 42
	dir := t.TempDir()
	// The cases run in parallel inside one group, which returns only when
	// they all have finished — so the trace files, which belong to the
	// enclosing test, outlive every replay.
	t.Run("group", func(t *testing.T) {
		for _, name := range []string{"xz", "gcc", "leela"} {
			w, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no workload %q", name)
			}
			path := filepath.Join(dir, name+".trace")
			dumpTrace(t, w, path, refs, seed)
			replay := workload.FromTrace(path)
			for _, sch := range scheme.Names() {
				for _, cyc := range []bool{false, true} {
					opts := Options{Scheme: sch, Refs: refs, Seed: seed, CycleModel: cyc}
					t.Run(fmt.Sprintf("%s/%s/cycles=%v", name, sch, cyc), func(t *testing.T) {
						t.Parallel()
						direct, err := Run(w, opts)
						if err != nil {
							t.Fatalf("direct: %v", err)
						}
						got, err := Run(replay, opts)
						if err != nil {
							t.Fatalf("replay: %v", err)
						}
						got.Workload = direct.Workload
						if !reflect.DeepEqual(got, direct) {
							t.Errorf("replay differs from the direct run\nreplay %+v\ndirect %+v", got, direct)
						}
					})
				}
			}
		}
	})
}

// dumpTrace records w's stream at the given budget to a trace file.
func dumpTrace(t *testing.T, w workload.Workload, path string, refs uint64, seed int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fw := trace.NewFileWriter(f)
	if err := w.Run(fw, refs, seed); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
}
