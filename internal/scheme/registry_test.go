package scheme

// Registry-behavior tests: registration is append-only (duplicates and
// empty names panic rather than silently aliasing two schemes' persisted
// results), and the read side (Lookup/Names/All) is mutually consistent.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tps/internal/addr"
	"tps/internal/mmu"
	"tps/internal/vmm"
)

// stub is the minimal registrable scheme for registry tests. It is only
// ever registered under throwaway names that the tests delete again.
type stub struct {
	Base
	name string
}

func (s stub) Name() string                   { return s.name }
func (s stub) Label() string                  { return strings.ToUpper(s.name) }
func (s stub) Description() string            { return "registry test stub" }
func (s stub) Policy() vmm.Policy             { return vmm.PolicyBase4K }
func (s stub) Organization() mmu.Organization { return mmu.OrgConventional }
func (s stub) Orders() []addr.Order           { return []addr.Order{0} }

func TestRegisterDuplicatePanics(t *testing.T) {
	const name = "registry-test-dup"
	Register(stub{name: name})
	defer Unregister(name)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("duplicate Register did not panic")
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, name) {
			t.Errorf("duplicate-registration panic %q does not name the offender %q", msg, name)
		}
	}()
	Register(stub{name: name})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register with empty name did not panic")
		}
	}()
	Register(stub{name: ""})
}

func TestLookupNamesAllConsistent(t *testing.T) {
	const name = "registry-test-lookup"
	Register(stub{name: name})
	defer Unregister(name)

	if _, ok := Lookup(name); !ok {
		t.Fatalf("Lookup(%q) missed a just-registered scheme", name)
	}
	if _, ok := Lookup("registry-test-never-registered"); ok {
		t.Error("Lookup found a name that was never registered")
	}

	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d schemes, Names() has %d", len(all), len(names))
	}
	for i, s := range all {
		if s.Name() != names[i] {
			t.Errorf("All()[%d].Name() = %q, Names()[%d] = %q", i, s.Name(), i, names[i])
		}
		got, ok := Lookup(names[i])
		if !ok || got.Name() != names[i] {
			t.Errorf("Lookup(%q) disagrees with All()", names[i])
		}
	}
}

func TestRegisterNonCanonicalNamePanics(t *testing.T) {
	for _, name := range []string{"Registry-Test-Upper", " registry-test-space"} {
		func() {
			defer func() {
				if recover() == nil {
					Unregister(name)
					t.Errorf("Register(%q) did not panic: Lookup could never find it", name)
				}
			}()
			Register(stub{name: name})
		}()
	}
}

func TestLookupCanonicalizes(t *testing.T) {
	const name = "registry-test-case"
	Register(stub{name: name})
	defer Unregister(name)
	for _, spelling := range []string{name, "Registry-Test-CASE", "  " + name + "\t"} {
		s, ok := Lookup(spelling)
		if !ok || s.Name() != name {
			t.Errorf("Lookup(%q) did not resolve to %q", spelling, name)
		}
	}
	if _, ok := Lookup(""); ok {
		t.Error("Lookup(\"\") resolved a scheme")
	}
}
