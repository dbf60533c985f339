package main

import "strings"

// layers lists every layer of the host-cost budget in table order. The
// last three take the profile samples whose stack holds no itsbed
// frame.
var layers = []string{
	"sim", "radio", "geonet", "facilities", "ldm", "codec", "stack",
	"openc2x", "vehicle", "vision", "perception", "instrumentation",
	"harness", "util", "bench", "gc", "net", "runtime",
}

// packageLayers maps each itsbed package to its layer. "main" is this
// benchmark. TestEveryPackageHasALayer fails when a package under
// internal/ lands without an entry.
var packageLayers = map[string]string{
	"itsbed/internal/sim":                "sim",
	"itsbed/internal/radio":              "radio",
	"itsbed/internal/its/geonet":         "geonet",
	"itsbed/internal/its/btp":            "geonet",
	"itsbed/internal/its/facilities/ca":  "facilities",
	"itsbed/internal/its/facilities/den": "facilities",
	"itsbed/internal/its/facilities/cp":  "facilities",
	"itsbed/internal/its/facilities/ldm": "ldm",
	"itsbed/internal/its/messages":       "codec",
	"itsbed/internal/asn1per":            "codec",
	"itsbed/internal/stack":              "stack",
	"itsbed/internal/openc2x":            "openc2x",
	"itsbed/internal/vehicle":            "vehicle",
	"itsbed/internal/physics":            "vehicle",
	"itsbed/internal/control":            "vehicle",
	"itsbed/internal/track":              "vehicle",
	"itsbed/internal/sensors":            "vehicle",
	"itsbed/internal/vision":             "vision",
	"itsbed/internal/perception":         "perception",
	"itsbed/internal/edge":               "perception",
	"itsbed/internal/metrics":            "instrumentation",
	"itsbed/internal/tracing":            "instrumentation",
	"itsbed/internal/flight":             "instrumentation",
	"itsbed/internal/trace":              "instrumentation",
	"itsbed":                             "harness",
	"itsbed/internal/core":               "harness",
	"itsbed/internal/experiments":        "harness",
	"itsbed/internal/campaign":           "harness",
	"itsbed/internal/world":              "harness",
	"itsbed/internal/faults":             "harness",
	"itsbed/internal/loadgen":            "harness",
	"itsbed/internal/perf":               "harness",
	"itsbed/internal/geo":                "util",
	"itsbed/internal/clock":              "util",
	"itsbed/internal/units":              "util",
	"itsbed/internal/stats":              "util",
	"main":                               "bench",
}

// packageOf returns the import path of the package a symbol such as
// "itsbed/internal/sim.(*Kernel).Run.func1" or
// "itsbed/internal/campaign.Collect[go.shape.*itsbed/internal/core.Result]"
// belongs to.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfStack attributes one profile sample, given its stack leaf
// first, to the layer of the first itsbed (or benchmark) frame walking
// up from the leaf. Time the runtime spends for that code, such as
// allocation and GC assists, therefore lands on the layer that caused
// it. Stacks without such a frame go to gc, net or runtime.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg == "main" || pkg == "itsbed" || strings.HasPrefix(pkg, "itsbed/") {
			if l, ok := packageLayers[pkg]; ok {
				return l
			}
			return "harness"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || strings.HasPrefix(pkg, "crypto/") {
			return "net"
		}
	}
	return "runtime"
}
