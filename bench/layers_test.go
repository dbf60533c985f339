package main

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryPackageHasALayer walks the program's internal/ tree: a new
// package must be given a layer before its host cost can be budgeted.
func TestEveryPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		pkgs["itsbed/internal/"+filepath.ToSlash(rel)] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no packages under ../internal")
	}
	for pkg := range pkgs {
		if _, ok := packageLayers[pkg]; !ok {
			t.Errorf("package %s has no layer in packageLayers", pkg)
		}
	}
	for pkg, layer := range packageLayers {
		if !slices.Contains(layers, layer) {
			t.Errorf("package %s maps to unknown layer %q", pkg, layer)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"itsbed/internal/sim.(*Kernel).Run.func1":                                 "itsbed/internal/sim",
		"itsbed/internal/campaign.Collect[go.shape.*itsbed/internal/core.Result]": "itsbed/internal/campaign",
		"itsbed/internal/its/facilities/den.(*Service).Trigger":                   "itsbed/internal/its/facilities/den",
		"itsbed.RunQuick":            "itsbed",
		"main.simWorkload.run.func1": "main",
		"net/http.(*conn).serve":     "net/http",
		"runtime.mallocgc":           "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// The first itsbed frame up from the leaf wins: allocation and
		// GC assist land on the layer that allocated.
		{[]string{"runtime.mallocgc", "itsbed/internal/metrics.key", "itsbed/internal/stack.New", "main.main"}, "instrumentation"},
		{[]string{"math.archHypot", "itsbed/internal/geo.Point.Dist", "itsbed/internal/track.(*Line).Project"}, "util"},
		{[]string{"container/heap.down", "itsbed/internal/sim.(*Kernel).RunUntil"}, "sim"},
		{[]string{"encoding/json.Marshal", "main.checkBody", "main.(*service).do"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "net"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"itsbed/internal/newpkg.F"}, "harness"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
