package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"itsbed/internal/faults"
	"itsbed/internal/trace"
	"itsbed/internal/track"
	"itsbed/internal/vehicle"
)

var updateStepObserver = flag.Bool("update", false, "rewrite testdata/step_observer.golden")

// stepObserverCase is one attempt of the step-observer golden.
type stepObserverCase struct {
	kind string // "gt", "vision" or "miss"
	seed int64
}

// stepObserverCases lists the golden's attempts: Table II seeds 1–200
// on the ground-truth follower, 10 seeds through the image pipeline,
// and 5 seeds whose camera drops every frame, so no warning is sent
// and the run ends when the vehicle runs off the line.
func stepObserverCases() []stepObserverCase {
	var cs []stepObserverCase
	for s := int64(1); s <= 200; s++ {
		cs = append(cs, stepObserverCase{"gt", s})
	}
	for s := int64(1); s <= 10; s++ {
		cs = append(cs, stepObserverCase{"vision", s})
	}
	for s := int64(1); s <= 5; s++ {
		cs = append(cs, stepObserverCase{"miss", s})
	}
	return cs
}

// stepObserverHorizon bounds each attempt of the golden.
const stepObserverHorizon = 30 * time.Second

// stepObserverRow runs one attempt the way a Table II campaign does
// (the same per-attempt speed and brake variation) and formats what
// the step observers decide: the action-point stamp, the instant the
// run's stop predicate held, Halted, and the final position's bits.
func stepObserverRow(c stepObserverCase) (string, error) {
	cfg := Config{Seed: c.seed, Layout: track.PaperLab()}
	cfg.Vehicle = vehicle.DefaultConfig(cfg.Layout)
	cfg.Vehicle.UseVision = c.kind == "vision"
	rng := rand.New(rand.NewSource(c.seed * 7919))
	cfg.Vehicle.CruiseSpeed += rng.Float64()*0.40 - 0.20
	cfg.Vehicle.Params.BrakeDecel += rng.Float64()*1.6 - 0.8
	if c.kind == "miss" {
		cfg.Faults = &faults.Plan{Name: "blind-camera", Camera: faults.CameraFault{FrameDropProb: 1}}
	}
	tb, err := New(cfg)
	if err != nil {
		return "", err
	}
	res, err := tb.RunScenario(stepObserverHorizon)
	if err != nil {
		return "", err
	}
	// Once the stop predicate holds, the kernel runs 800 ms more for
	// the video's stop frame; a run that reaches the horizon ends there.
	until := "horizon"
	if end := tb.Kernel.Now(); end < stepObserverHorizon {
		until = (end - 800*time.Millisecond).String()
	}
	ap := "-"
	if at, ok := res.Run.At(trace.StepActionPoint); ok {
		ap = at.String()
	}
	pos := tb.Vehicle.Body.State().Position
	return fmt.Sprintf("%s seed=%d ap=%s until=%s halted=%t x=%#016x y=%#016x",
		c.kind, c.seed, ap, until, tb.Vehicle.Halted(),
		math.Float64bits(pos.X), math.Float64bits(pos.Y)), nil
}

// stepObserverRows runs every case on the given number of workers and
// returns the rows in case order.
func stepObserverRows(t *testing.T, workers int) string {
	t.Helper()
	cs := stepObserverCases()
	rows := make([]string, len(cs))
	errs := make([]error, len(cs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = stepObserverRow(cs[i])
			}
		}()
	}
	for i := range cs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s seed %d: %v", cs[i].kind, cs[i].seed, err)
		}
	}
	return strings.Join(rows, "\n") + "\n"
}

// TestStepObserverGolden pins when the run's observers fire: the
// action-point stamp, the end of the approach and the resting
// position, for every case of stepObserverCases, at 1 and 8 workers.
func TestStepObserverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 215 attempts twice")
	}
	path := filepath.Join("testdata", "step_observer.golden")
	got := stepObserverRows(t, 1)
	if *updateStepObserver {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if workers != 1 {
			got = stepObserverRows(t, workers)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("workers %d: row %d differs:\n got  %s\n want %s", workers, i, gl[i], wl[i])
				}
			}
			t.Fatalf("workers %d: %d rows, want %d", workers, len(gl), len(wl))
		}
	}
}
