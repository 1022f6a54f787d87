package vmm

import (
	"fmt"
	"math/rand"
	"testing"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/mmu"
)

// The shadow-model stress test: drive the kernel through a sequence of
// mmap / touch / write / clone / munmap / compact / consolidate / merge
// operations while maintaining an independent model of what every byte's
// identity should be, then verify that translation always routes reads to
// the frame holding the right logical content. After every operation the
// buddy allocator's and the kernel's own invariants must hold.
//
// Because the simulator does not move data, "content" is modeled by
// logical ownership: every (region generation, page index) pair gets a
// unique ID stamped into a shadow map keyed by physical frame. Reads must
// find their ID; CoW writes must re-stamp privately.
//
// The sequence comes from a seeded PRNG (TestKernelShadowModelStress) or
// from fuzzer-chosen bytes (FuzzKernelOps).

type shadowRegion struct {
	base  addr.Virt
	pages uint64
	ids   []uint64 // logical content id per page
}

type shadowWorld struct {
	t       testing.TB
	k       *Kernel
	regions []*shadowRegion
	// frameContent maps each base frame to the content id last written
	// into it.
	frameContent map[addr.PFN]uint64
	nextID       uint64
	table        []tablePage // checkKernel's scratch
	// checked lists the pages the current operation touched or unmapped,
	// for checkCoverage.
	checked []addr.VPN
}

// tablePage is one installed page as the page table reports it.
type tablePage struct {
	vpn addr.VPN
	o   addr.Order
}

func (w *shadowWorld) writePage(r *shadowRegion, page uint64) {
	v := r.base + addr.Virt(page*addr.BasePageSize)
	w.checked = append(w.checked, v.PageNumber())
	copied := w.k.stats.Cow.CopiedPages
	res, err := w.k.Access(v, true)
	if err != nil {
		w.t.Fatalf("write %#x: %v", uint64(v), err)
	}
	if w.k.stats.Cow.CopiedPages-copied > 1 {
		// CowFull copied the whole page: its other base pages now live
		// in fresh frames holding copies of their content.
		cur, err := w.k.table.Lookup(v)
		if err != nil {
			w.t.Fatalf("lookup %#x: %v", uint64(v), err)
		}
		first := uint64(cur.VPN - r.base.PageNumber())
		for p := first; p < first+cur.Order.Pages(); p++ {
			if r.ids[p] != 0 {
				w.frameContent[cur.PFN+addr.PFN(p-first)] = r.ids[p]
			}
		}
	}
	w.nextID++
	r.ids[page] = w.nextID
	w.frameContent[res.Phys.PageNumber()] = w.nextID
}

func (w *shadowWorld) readPage(r *shadowRegion, page uint64) {
	v := r.base + addr.Virt(page*addr.BasePageSize)
	w.checked = append(w.checked, v.PageNumber())
	res, err := w.k.Access(v, false)
	if err != nil {
		w.t.Fatalf("read %#x: %v", uint64(v), err)
	}
	want := r.ids[page]
	if want == 0 {
		return // never written; content undefined
	}
	got := w.frameContent[res.Phys.PageNumber()]
	if got != want {
		w.t.Fatalf("read %#x: frame %#x holds id %d, want %d",
			uint64(v), uint64(res.Phys.PageNumber()), got, want)
	}
}

// relabel updates the shadow frame map after operations that move frames
// (compaction/consolidation): re-resolve every written page's frame.
func (w *shadowWorld) relabel() {
	w.frameContent = make(map[addr.PFN]uint64)
	for _, r := range w.regions {
		for p := uint64(0); p < r.pages; p++ {
			if r.ids[p] == 0 {
				continue
			}
			v := r.base + addr.Virt(p*addr.BasePageSize)
			res, err := w.k.Access(v, false)
			if err != nil {
				w.t.Fatalf("relabel %#x: %v", uint64(v), err)
			}
			// Shared frames may receive the same id from several
			// regions; ids of sharers are equal by construction.
			w.frameContent[res.Phys.PageNumber()] = r.ids[p]
		}
	}
}

// choices supplies the decisions of one operation sequence.
type choices interface {
	Intn(n int) int
}

// byteChoices draws decisions from fuzzer-provided bytes: one byte per
// choice below 256 options, two above. Exhausted input reads as zeros.
type byteChoices struct{ data []byte }

func (c *byteChoices) Intn(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		if len(c.data) == 0 {
			break
		}
		v = v<<8 | int(c.data[0])
		c.data = c.data[1:]
	}
	return v % n
}

// opsConfig is one kernel configuration the operation sequences run under.
type opsConfig struct {
	name string
	cfg  Config
	org  mmu.Organization
}

// opsConfigs covers every policy plus the promotion variants with their
// own code paths: fixed granules (Svnapot), a sub-1.0 threshold (promotion
// maps untouched pages), and whole-page copy-on-write.
func opsConfigs() []opsConfig {
	cfg := func(p Policy, edit func(*Config)) Config {
		c := DefaultConfig(p)
		if edit != nil {
			edit(&c)
		}
		return c
	}
	return []opsConfig{
		{"tps", cfg(PolicyTPS, nil), mmu.OrgTPS},
		{"thp", cfg(PolicyTHP, nil), mmu.OrgConventional},
		{"base-4k", cfg(PolicyBase4K, nil), mmu.OrgConventional},
		{"tps-eager", cfg(PolicyTPSEager, nil), mmu.OrgTPS},
		{"2m-only", cfg(Policy2MOnly, nil), mmu.OrgConventional},
		{"rmm-eager", cfg(PolicyRMMEager, nil), mmu.OrgConventional},
		{"tps-granules", cfg(PolicyTPS, func(c *Config) {
			c.PromotionGranules = []addr.Order{4, addr.Order2M, addr.Order1G}
		}), mmu.OrgTPS},
		{"tps-half", cfg(PolicyTPS, func(c *Config) { c.PromotionThreshold = 0.5 }), mmu.OrgTPS},
		{"tps-cowfull", cfg(PolicyTPS, func(c *Config) { c.CowPolicy = CowFull }), mmu.OrgTPS},
	}
}

// runKernelOps drives up to steps operations (fewer if the choices run
// out) through a fresh kernel over a buddy allocator of
// memPages frames, checking the shadow model on every access and the
// allocator and kernel invariants after every operation. Regions span at
// most maxPages base pages.
func runKernelOps(t testing.TB, oc opsConfig, c choices, steps int, memPages, maxPages uint64) {
	bud := buddy.New(memPages)
	k := New(oc.cfg, bud)
	k.AttachMMU(mmu.New(mmu.DefaultConfig(oc.org), k.Table(), nil, nil))
	w := &shadowWorld{t: t, k: k, frameContent: make(map[addr.PFN]uint64)}
	bc, _ := c.(*byteChoices)
	for step := 0; step < steps && (bc == nil || len(bc.data) > 0); step++ {
		switch op := c.Intn(100); {
		case op < 12 && len(w.regions) < 24: // mmap
			pages := uint64(1 + c.Intn(int(maxPages)))
			// Out of memory is a legitimate outcome; the invariants
			// below then check the rollback.
			if base, err := k.Mmap(pages*addr.BasePageSize, 0); err == nil {
				w.regions = append(w.regions, &shadowRegion{
					base: base, pages: pages, ids: make([]uint64, pages),
				})
			}
		case op < 55 && len(w.regions) > 0: // write (CoW-faulting if shared)
			r := w.regions[c.Intn(len(w.regions))]
			w.writePage(r, uint64(c.Intn(int(r.pages))))
		case op < 90 && len(w.regions) > 0: // touch (read)
			r := w.regions[c.Intn(len(w.regions))]
			w.readPage(r, uint64(c.Intn(int(r.pages))))
		case op < 92 && len(w.regions) > 1: // munmap one region
			i := c.Intn(len(w.regions))
			r := w.regions[i]
			if err := k.Munmap(r.base); err != nil {
				t.Fatalf("munmap: %v", err)
			}
			for p := uint64(0); p < r.pages; p++ {
				w.checked = append(w.checked, r.base.PageNumber()+addr.VPN(p))
			}
			w.regions = append(w.regions[:i], w.regions[i+1:]...)
			w.relabel()
		case op < 93 && oc.org == mmu.OrgTPS && len(w.regions) > 0 && len(w.regions) < 24: // CoW clone
			r := w.regions[c.Intn(len(w.regions))]
			clone, err := k.CloneCOW(r.base)
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			nr := &shadowRegion{base: clone, pages: r.pages, ids: make([]uint64, r.pages)}
			copy(nr.ids, r.ids) // shared frames: identical content
			w.regions = append(w.regions, nr)
		case op < 94: // compaction daemon pass
			k.Compact()
			w.relabel()
		case op < 95:
			k.ConsolidateReservations()
			w.relabel()
		case op < 96:
			k.MergePages()
		default: // full re-verification sweep
			for _, r := range w.regions {
				for p := uint64(0); p < r.pages; p += 7 {
					w.readPage(r, p)
				}
			}
		}
		if err := bud.CheckInvariants(); err != nil {
			t.Fatalf("step %d: buddy: %v", step, err)
		}
		if err := w.checkKernel(); err != nil {
			t.Fatalf("step %d: kernel: %v", step, err)
		}
		if err := w.checkCoverage(); err != nil {
			t.Fatalf("step %d: TLB coverage: %v", step, err)
		}
	}
	// Tear everything down: no leaks.
	for _, r := range w.regions {
		if err := k.Munmap(r.base); err != nil {
			t.Fatal(err)
		}
	}
	if bud.FreePages() != bud.TotalPages() {
		t.Errorf("leak: %d != %d", bud.FreePages(), bud.TotalPages())
	}
}

// checkCoverage verifies the invariant the MMU's first-touch shortcut
// rests on: no L1 or STLB entry covers a page the page table does not map
// (every unmap shoots the range down). It checks the pages the operation
// touched or unmapped — the re-verification sweep touches every seventh
// page of every region, and relabeling after a frame move every written
// page — then forgets them.
func (w *shadowWorld) checkCoverage() error {
	m := w.k.mmu
	structs := append(m.L1TLBs(), m.STLBs()...)
	for _, vpn := range w.checked {
		if _, err := w.k.table.Lookup(vpn.Addr()); err == nil {
			continue
		}
		for _, s := range structs {
			if e, hit := s.Probe(vpn); hit {
				return fmt.Errorf("%s holds %+v over unmapped page %#x", s.Name(), e, vpn)
			}
		}
	}
	w.checked = w.checked[:0]
	return nil
}

// checkKernel verifies that every reservation's mapped-page bookkeeping
// agrees exactly with the page table, both ways: walking the reservations
// in ascending order must list exactly the table's pages, with the same
// orders. The whole-chunk flag must stand for one chunk-sized page with
// the per-page array empty, and every lazily allocated frame must be an
// order-0 block the allocator holds as allocated.
func (w *shadowWorld) checkKernel() error {
	k := w.k
	table := w.table[:0] // ascending, as MappedPages visits
	k.table.MappedPages(func(vpn addr.VPN, _ addr.PFN, o addr.Order, _ uint64) {
		table = append(table, tablePage{vpn, o})
	})
	w.table = table
	next := 0
	for _, v := range k.vmas {
		for _, r := range v.reservations {
			for i, mo := range r.mappedOrd {
				if mo == 0 {
					continue
				}
				if r.whole {
					return fmt.Errorf("reservation %#x: whole chunk mapped but page %d also recorded", r.vpn, i)
				}
				if o := addr.Order(mo) - 1; o >= r.order || !addr.VPN(i).Aligned(o) {
					return fmt.Errorf("reservation %#x order %d: bad page order %d at %d", r.vpn, r.order, o, i)
				}
			}
			var err error
			r.forEachMapped(func(vpn addr.VPN, o addr.Order) {
				switch {
				case err != nil:
				case next == len(table) || table[next].vpn > vpn:
					err = fmt.Errorf("reservation %#x records page %#x order %d the table lacks", r.vpn, vpn, o)
				case table[next].vpn < vpn:
					err = fmt.Errorf("table page %#x order %d not recorded by any reservation", table[next].vpn, table[next].o)
				case table[next].o != o:
					err = fmt.Errorf("reservation %#x records page %#x at order %d, table at %d", r.vpn, vpn, o, table[next].o)
				default:
					next++
				}
			})
			if err != nil {
				return err
			}
			for i, f := range r.lazyFrames {
				if f == 0 {
					continue
				}
				if o, ok := k.bud.Owned(f - 1); !ok || o != 0 {
					return fmt.Errorf("reservation %#x: lazy frame %#x for page %d is not an allocated order-0 block", r.vpn, f-1, i)
				}
			}
		}
	}
	if next < len(table) {
		return fmt.Errorf("table page %#x order %d not recorded by any reservation", table[next].vpn, table[next].o)
	}
	return nil
}

func TestKernelShadowModelStress(t *testing.T) {
	for _, oc := range opsConfigs()[:3] {
		oc := oc
		t.Run(oc.name, func(t *testing.T) {
			// 512 MB of physical memory, 4000 operations.
			runKernelOps(t, oc, rand.New(rand.NewSource(77)), 4000, 1<<17, 256)
		})
	}
}

// FuzzKernelOps is the coverage-guided form of the stress test: the first
// byte picks the configuration, the rest drive the operation sequence.
//
//	go test -fuzz=FuzzKernelOps -fuzztime=60s ./internal/vmm
func FuzzKernelOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := range opsConfigs() {
		// Short seeds keep minimizing new inputs cheap; mutation
		// lengthens them.
		seed := make([]byte, 64)
		rng.Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ocs := opsConfigs()
		oc := ocs[int(data[0])%len(ocs)]
		// 256 MB of physical memory; regions up to 2.5 MB so THP
		// reaches its 2 MB pages. At most 300 operations per input keep
		// executions fast.
		runKernelOps(t, oc, &byteChoices{data: data[1:]}, 300, 1<<16, 640)
	})
}
