// Package scheme defines the translation-scheme plugin interface and its
// process-wide registry.
//
// A translation scheme is one comparison point of the evaluation: a PTE
// encoding domain (which page orders may be mapped), a TLB probe policy
// (the mmu.Organization the hardware is assembled with), and an OS
// promotion/reservation policy (the vmm.Policy plus any kernel-config
// restrictions). Each scheme lives in its own package under
// internal/scheme/ and registers itself under a stable string name in an
// init function; internal/scheme/all imports every built-in backend so
// that importing it (as internal/sim does) populates the registry.
//
// The registry name is load-bearing: it keys persisted results in the
// content-addressed store (see the engine's cell fingerprints), appears in
// telemetry events and manifests, and is what the CLIs and sim.Options
// resolve — it is a scheme's only identity. Names must therefore never
// change once released; display labels (Label) may.
//
// The conformance suite in this package's tests runs automatically against
// every registered scheme: PTE round-trip over the scheme's order domain,
// TLB probe/insert counter invariants, a zero-allocation steady-state
// translate path, and run-to-run determinism. A new backend only has to
// register itself to be covered. See DESIGN.md ("Authoring a translation
// scheme") for the contract in prose.
package scheme

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tps/internal/addr"
	"tps/internal/colt"
	"tps/internal/mmu"
	"tps/internal/rmm"
	"tps/internal/vmm"
)

// Scheme is one translation mechanism under evaluation.
type Scheme interface {
	// Name is the stable registry name ("tps", "svnapot", ...): lower-case,
	// never changed once released, used in store fingerprints, telemetry,
	// and CLI selection.
	Name() string
	// Label is the display name used in figure and table headers, matching
	// the paper's terminology where the scheme appears there ("TPS").
	Label() string
	// Description is one line for scheme listings and docs.
	Description() string

	// Policy selects the OS promotion/reservation policy the kernel runs.
	Policy() vmm.Policy
	// Organization selects the L1/L2 TLB arrangement probed per access.
	Organization() mmu.Organization
	// Orders enumerates the page orders the scheme's PTE encoding may map
	// (its encoding domain), ascending. The conformance suite round-trips
	// each order through the PTE codec and checks that simulated runs never
	// map a page outside this set.
	Orders() []addr.Order

	// TuneKernel adjusts the kernel configuration after policy defaults are
	// applied and before user knobs override it (e.g. Svnapot restricts the
	// promotion granule set). Most schemes leave cfg untouched.
	TuneKernel(cfg *vmm.Config)
	// Attach builds the scheme's per-process machinery over a freshly
	// created kernel: L2 sidecar TLBs, TLB fill policies, OS-side range
	// tables. Called once per simulated address space.
	Attach(k *vmm.Kernel) Attachment
}

// Attachment is what Attach contributes to machine assembly. All fields
// are optional. RangeTLB and Coalescer are the concrete stat sources the
// harness surfaces in Result.RMM / Result.CoLT; schemes without those
// structures leave them nil.
type Attachment struct {
	Sidecar   mmu.Sidecar    // L2-parallel translation source (RMM Range TLB)
	Fill      mmu.FillPolicy // L1 fill transformation (CoLT coalescing)
	RangeTLB  *rmm.RangeTLB
	Coalescer *colt.Coalescer
}

// Base provides no-op defaults for the optional hooks; embed it in scheme
// implementations that need neither kernel tuning nor attachments.
type Base struct{}

// TuneKernel leaves the kernel configuration unchanged.
func (Base) TuneKernel(*vmm.Config) {}

// Attach contributes nothing to machine assembly.
func (Base) Attach(*vmm.Kernel) Attachment { return Attachment{} }

var (
	mu       sync.RWMutex
	registry = map[string]Scheme{}
)

// Register adds a scheme to the registry. It panics on an empty name, a
// name Lookup could never find (upper-case or space-padded), or a
// duplicate registration: all are programming errors in a scheme package,
// and a silent overwrite would alias two schemes' persisted results.
func Register(s Scheme) {
	name := s.Name()
	if name == "" {
		panic("scheme: Register with empty name")
	}
	if name != canonical(name) {
		panic(fmt.Sprintf("scheme: Register with non-canonical name %q", name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Unregister removes a scheme from the registry, for tests that register
// a temporary backend and must not leak it into later tests.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(registry, name)
}

// canonical is the registry spelling of a name: lower-case, no
// surrounding space.
func canonical(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Lookup finds a registered scheme by its stable name, case-insensitively
// and ignoring surrounding space; the scheme's Name is the canonical
// spelling. The empty name is never registered.
func Lookup(name string) (Scheme, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[canonical(name)]
	return s, ok
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered schemes sorted by name.
func All() []Scheme {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scheme, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
