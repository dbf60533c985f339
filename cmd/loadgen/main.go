// Command loadgen hammers a running testbed daemon (rsud/obud, one
// station or a fleet) with the deterministic load harness and prints
// the latency/shed table.
//
//	loadgen -url http://127.0.0.1:1188 -rps 500 -duration 30s
//	loadgen -url http://127.0.0.1:1188 -stations 1-500 -rps 2000 \
//	        -duration 60s -thresholds soak_thresholds.json
//
// -stations spreads requests across the multiplexed
// /stations/{id}/... routes: either a comma-separated ID list
// ("7,9,12") or an inclusive range ("1-500"). Without it the legacy
// single-station aliases are used. The endpoint/station schedule is
// seeded (-seed) and reproducible; latencies are wall-clock.
// -thresholds FILE checks the result against a JSON ceilings file and
// exits nonzero on violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"itsbed/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://127.0.0.1:1188", "daemon base URL")
	stations := flag.String("stations", "", "station IDs: comma list (7,9) or range (1-500); empty = legacy routes")
	rps := flag.Float64("rps", 100, "aggregate target request rate")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	workers := flag.Int("workers", 8, "client concurrency")
	seed := flag.Int64("seed", 42, "request-schedule seed")
	thresholds := flag.String("thresholds", "", "JSON ceilings file the result must satisfy")
	flag.Parse()

	ids, err := parseStations(*stations)
	if err != nil {
		return err
	}
	result := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  *url,
		Stations: ids,
		RPS:      *rps,
		Duration: *duration,
		Workers:  *workers,
		Seed:     *seed,
	})
	fmt.Print(result.Format())
	if *thresholds != "" {
		data, err := os.ReadFile(*thresholds)
		if err != nil {
			return err
		}
		th, err := loadgen.ParseThresholds(data)
		if err != nil {
			return err
		}
		if err := result.Check(th); err != nil {
			return err
		}
		fmt.Println("thresholds: PASS")
	}
	return nil
}

// parseStations accepts "7,9,12" or "1-500" (inclusive).
func parseStations(s string) ([]uint32, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(s, "-"); ok && !strings.Contains(s, ",") {
		a, errA := strconv.ParseUint(strings.TrimSpace(lo), 10, 32)
		b, errB := strconv.ParseUint(strings.TrimSpace(hi), 10, 32)
		if errA != nil || errB != nil || a == 0 || b < a {
			return nil, fmt.Errorf("invalid station range %q", s)
		}
		out := make([]uint32, 0, b-a+1)
		for id := a; id <= b; id++ {
			out = append(out, uint32(id))
		}
		return out, nil
	}
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("invalid station ID %q", part)
		}
		out = append(out, uint32(id))
	}
	return out, nil
}
