package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"tps/internal/fragstate"
	"tps/internal/scheme"
	"tps/internal/trace"
)

// phaseProbe forwards every event to the machine and, once the machine
// has taken its main-phase baselines, calls onMain.
type phaseProbe struct {
	*machine
	onMain func()
}

func (p phaseProbe) Phase(name string) {
	p.machine.Phase(name)
	if name == trace.MainPhase {
		p.onMain()
	}
}

// writeMachineState renders everything the run has modeled so far: the
// translation hardware's full state (every way, LRU stamp, clock and
// counter, plus the translation-cache lines) and each process's MMU, OS,
// Range-TLB and coalescer counters.
func writeMachineState(h hash.Hash, m *machine) {
	m.hw.WriteState(h)
	for i, p := range m.procs {
		fmt.Fprintf(h, "proc %d\nmmu %+v serves %d\nvmm %+v\n",
			i, p.mmu.Stats(), p.mmu.TransCacheServes(), p.kernel.Stats())
		if p.rtlb != nil {
			fmt.Fprintf(h, "rmm %+v\n", p.rtlb.Stats())
		}
		if p.coal != nil {
			fmt.Fprintf(h, "colt %+v\n", p.coal.Stats())
		}
	}
}

// warmState runs w under opts and returns the SHA-256 of the machine
// state at the main-phase boundary and at the end of the run.
func warmState(t *testing.T, workloadName string, opts Options) (boundary, end string) {
	t.Helper()
	m, err := newMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		h := sha256.New()
		writeMachineState(h, m)
		return hex.EncodeToString(h.Sum(nil))
	}
	probe := phaseProbe{machine: m, onMain: func() { boundary = digest() }}
	if err := m.drive(catalogWorkload(t, workloadName), &trace.CountingSink{Sink: probe}); err != nil {
		t.Fatal(err)
	}
	if boundary == "" {
		t.Fatalf("%s never announced its main phase", workloadName)
	}
	return boundary, digest()
}

// warmStateWant pins the state digests at the main-phase boundary and at
// the end of the run. The figure goldens see only measured-phase counts,
// rounded; these see every bit of warm-up state — LRU stamps and clocks
// included — so a simulator speedup that perturbs the modeled machine in
// any way fails here even when no printed number moves. A deliberate
// modeling change must update them together.
var warmStateWant = map[string][2]string{
	"gcc-smt/tps": {
		"5585239b39427dcced60aa3a8842b944605150b720492ca507f2fd6414ac62b9",
		"98e9beaaa8c3d9411796b6f7d6985efcc8b30ed7346c20ffe149fce806216938"},
	"graph500-fragmented/tps": {
		"2a54c71e8664fabbfc09af53c43bf58e3d9ba5a9d6971c0211e2ff2d99ba9721",
		"0290f44c5274e4280f8fd986994f8ba91dca9b995e04b29de83c7049cfc0ab85"},
	"gups/2m-only": {
		"0d9737ab3123bf1f8fabb44e204dc7913833c6cebce4e32602f37e00dced20a0",
		"703fea4ad295f019fc603fd17b5f5ae933abc45845a04282fa1e9c081ec630a1"},
	"gups/base4k": {
		"70128af513b62669b8bc8aa3c5abae29aca9bb97cca464d6634905d2fb70ad6b",
		"e4676e95360e7e28bf34f6294146cef26359c3cb01d177fabb6d48789c9f7bf2"},
	"gups/colt": {
		"53accafce1839d620224d9b9e869a294ced9a33b274e99f92e42f0b70adfd085",
		"b93b5f0752850a7f0bc186644435e8535ad55b6532c8c66b1bda972f4359f841"},
	"gups/rmm": {
		"3ad6fc5ad307fe4b27bc19c73313570e4ad9c11057278309d24cb02b09869236",
		"41f65c0f66a6494812ee5c6c585908c621524a0c68d59e2d3aced8aea0660f56"},
	"gups/svnapot": {
		"8f407439dffa10d119b2933d80d80c1bf8370f864ae45ceb981e72696d113cfd",
		"68059d1e3a5d39ee53bbbc09ac6f21ccaa2c4ec67cacf271b871043845d06929"},
	"gups/thp": {
		"bc4bb317b797ac67b09dd87c5e33f277bf5c89c56e0be0de5400ff94e48b87e9",
		"15136e55fffcfc0f399ea9c57b61d57fd958d54f046100f2644d868d61bafaf0"},
	"gups/tps": {
		"f989f70115ea2048d9063f0fd4652b7fda7e88126a926cf972a3a7105ce28b0f",
		"8f484fe40b4c107285c0f3a6ecfab9e35da37740d8926dd5ce237e2e6e29df1b"},
	"gups/tps-eager": {
		"29f16f596aefb5b72349f13f9c307f2c48a33bf611d2374a5ae5401327add57e",
		"16e51c1230c8f68205e0eaa296d692c46ec194e9305ae574ef19c7fb8dc449d4"},
	"mcf/2m-only": {
		"e4b301df10aabae8bdaf2aaa39a2fde282ba3b64fe5b9eac3e68fa112b56c11c",
		"c036f2baf2b8f762c54ff25c16a4ddd59db9670f2cbd6d8c099e6565f73cd915"},
	"mcf/base4k": {
		"bcd0c59b344dff0538a625320dd80b8b3f73371ef579b068b91176b30df89306",
		"da480d3c318b91a43f95ecd90ad8f78c8021d85bd24c48c15738a55597c0d5bf"},
	"mcf/colt": {
		"d92f2268593a96545456bf06351900111bfa24e82a506d888023c566bb09d71f",
		"ac9d27d714fa89936a1305b701d31247c3dd10cfcb5aaacc19dacc3602b6c681"},
	"mcf/rmm": {
		"76f953a1f77079e965a286aae81c877c312f9cb3f199f7effeb36c30e0d19c58",
		"9aad66ccab20753ad8fda54ca5a22d7f0c71e047beb9924d72835b6696855305"},
	"mcf/svnapot": {
		"897c957dbf5750b942aec88d1bc072908f3c9e78504fb001f8c692685a5d18a4",
		"d48f6008b0b763f04f1dde5df53258abb6a513b734b982796911f0cbeb1e436e"},
	"mcf/thp": {
		"c5835c07ab1a677aa00260aa268ecb5f0a16fadb8198e30c8be01ae24930add5",
		"8d9abc8e76723e857762804c42c82d391802e0f7016c36ca7a222c6082a9cea2"},
	"mcf/tps": {
		"7502593738475400dfa79abd11ecae124b7cbab4907eb13a21499695b29fb360",
		"10ea92f86ad4969a0bac1b8ef7921ce4ea38b0a3f985dec3d9ebb411c386be7e"},
	"mcf/tps-eager": {
		"48c0fe7be329d4b8b0b41ccc07f5302bf488361da960761aa2f21f45804e14f7",
		"866e0c1410f2659c283cef0c65aa9eed740a6eafcb912198b1e22954901690ef"},
}

// TestWarmStatePinned covers the first-touch-dominated cells: every
// registered scheme on gups and mcf, fragmented graph500, and one SMT
// cell whose siblings fault through shared translation hardware.
func TestWarmStatePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in ~40 GB of simulated footprint")
	}
	type cell struct {
		name, workload string
		opts           Options
	}
	var cells []cell
	for _, w := range []string{"gups", "mcf"} {
		for _, sch := range scheme.Names() {
			cells = append(cells, cell{w + "/" + sch, w, Options{Scheme: sch}})
		}
	}
	cells = append(cells,
		cell{"graph500-fragmented/tps", "graph500",
			Options{Scheme: "tps", PreFragment: fragstate.PreFragment(fragstate.DefaultParams())}},
		cell{"gcc-smt/tps", "gcc", Options{Scheme: "tps", SMT: true}})
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled && !c.opts.SMT {
				// One goroutine gives the race detector nothing to check,
				// and it would multiply this cell's cost ten-fold; CI's
				// warm-state step runs these cells uninstrumented.
				t.Skip("single-goroutine cell under the race detector")
			}
			t.Parallel()
			opts := c.opts
			// The figures' machine: 16 GB of physical memory.
			opts.Refs, opts.Seed, opts.MemoryPages = 20_000, 1, 1<<22
			boundary, end := warmState(t, c.workload, opts)
			want := warmStateWant[c.name]
			if boundary != want[0] {
				t.Errorf("main-phase boundary state digest\n got %s\nwant %s", boundary, want[0])
			}
			if end != want[1] {
				t.Errorf("end-of-run state digest\n got %s\nwant %s", end, want[1])
			}
		})
	}
}
