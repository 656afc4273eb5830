package load

import (
	"go/types"
	"testing"
)

// TestLoadSubsetSharesModulePackages loads two packages of this module where
// one reaches the other through a package that is only a dependency
// (fleet → scenario → sim). Every path must resolve to one *types.Package:
// a dep-only module package read from export data would carry its own copy
// of sim, and fleet would fail to type-check against the source-checked one.
func TestLoadSubsetSharesModulePackages(t *testing.T) {
	pkgs, err := Load(Config{Patterns: []string{"repro/internal/fleet", "repro/internal/sim"}})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	fleet, sim := byPath["repro/internal/fleet"], byPath["repro/internal/sim"]
	if fleet == nil || sim == nil || len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want exactly fleet and sim", len(pkgs))
	}
	scenario := imported(fleet.Types, "repro/internal/scenario")
	if scenario == nil {
		t.Fatal("fleet does not import scenario; the regression needs a dep-only path to sim")
	}
	for _, via := range []*types.Package{fleet.Types, scenario} {
		if got := imported(via, "repro/internal/sim"); got != sim.Types {
			t.Errorf("%s imports a second copy of sim", via.Path())
		}
	}
}

// imported returns the package pkg imports under path, or nil.
func imported(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}
