package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"

	_ "embed"
)

// defaultSeed is the seed the committed output digests were taken at.
const defaultSeed = 1

// digestEvery is, per simulation workload, how many calls separate two
// checkpoints of the running output digest. Warm-up calls count.
var digestEvery = map[string]int{"table2": 200, "vision": 5, "city-1000": 1}

//go:embed testdata/expected.json
var expectedJSON []byte

// expectedDigests is testdata/expected.json: per workload, the running
// SHA-256 of every call's simulated output at each checkpoint, taken at
// defaultSeed.
type expectedDigests struct {
	Seed        int64               `json:"seed"`
	Checkpoints map[string][]string `json:"checkpoints"`
}

// outputDigest hashes the canonical simulated output of each call in
// order and keeps the running sum at every checkpoint.
type outputDigest struct {
	every int
	calls int
	h     hash.Hash
	sums  []string
}

func newOutputDigest(workload string) *outputDigest {
	return &outputDigest{every: digestEvery[workload], h: sha256.New()}
}

func (d *outputDigest) add(canon []byte) {
	d.h.Write(canon)
	d.calls++
	if d.every > 0 && d.calls%d.every == 0 {
		d.sums = append(d.sums, hex.EncodeToString(d.h.Sum(nil)))
	}
}

// checkDigests compares a run's checkpoints at defaultSeed with the
// committed ones and returns how many it compared. Checkpoints past the
// end of the committed list (a faster host runs more calls) go
// unchecked.
func checkDigests(workload string, got []string) (int, error) {
	var exp expectedDigests
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return 0, fmt.Errorf("testdata/expected.json: %w", err)
	}
	want := exp.Checkpoints[workload]
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i, fmt.Errorf("%s: output digest after %d calls is %.12s, want %.12s",
				workload, (i+1)*digestEvery[workload], got[i], want[i])
		}
	}
	return n, nil
}

// updateDigests records a run's checkpoints in the expected-digests
// file at path, keeping the other workloads' entries.
func updateDigests(path string, got map[string][]string) error {
	exp := expectedDigests{Seed: defaultSeed}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &exp); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if exp.Checkpoints == nil {
		exp.Checkpoints = map[string][]string{}
	}
	for w, sums := range got {
		exp.Checkpoints[w] = sums
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
