package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// digests.json pins the rendered tables (the product, not the encoded
// Result, whose schema may grow): workload → seed → SHA-256 of every
// table the sweep renders, in order.
//
//go:embed digests.json
var digestsJSON []byte

type digestBook map[string]map[string]string

func loadDigests() (digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(digestsJSON, &b); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

func digestOf(tables string) string {
	sum := sha256.Sum256([]byte(tables))
	return hex.EncodeToString(sum[:])
}

// Verification outcomes of a run's tables.
const (
	verified   = "verified"   // equal to the recorded digest for this seed
	unverified = "unverified" // no digest recorded for this seed; only repeatability was checked
	mismatch   = "mismatch"   // an error, a differing recorded digest, or sweeps that disagree
)

// tally is a run's cell accounting and output check.
type tally struct {
	attempted, failed uint64
	status            string
	detail            string // why the check failed, when it did
}

// check accounts a run's sweeps of one workload and seed. Every sweep
// must render the same bytes, and those bytes must match the recorded
// digest when there is one. A sweep that errs or renders other bytes
// counts all of its cells as failed.
func (b digestBook) check(workload string, seed int64, sweeps []sweep) tally {
	want, recorded := b[workload][strconv.FormatInt(seed, 10)]
	t := tally{status: unverified}
	if recorded {
		t.status = verified
	}
	ref := ""
	for i, sw := range sweeps {
		t.attempted += sw.cells
		bad := ""
		switch {
		case sw.err != nil:
			bad = fmt.Sprintf("sweep %d failed: %v", i, sw.err)
		case recorded && digestOf(sw.tables) != want:
			bad = fmt.Sprintf("sweep %d tables digest %s, recorded %s", i, digestOf(sw.tables)[:12], want[:12])
		case ref != "" && sw.tables != ref:
			bad = fmt.Sprintf("sweep %d tables differ from sweep 0", i)
		}
		if ref == "" && sw.err == nil {
			ref = sw.tables
		}
		if bad != "" {
			t.failed += sw.cells
			if t.status != mismatch {
				t.status, t.detail = mismatch, bad
			}
		}
	}
	if t.attempted == 0 {
		t.attempted = 1 // a run that queued nothing still attempted its workload
		t.failed = 1
		t.status, t.detail = mismatch, "no cells ran"
	}
	return t
}

// record regenerates every workload's tables once per seed and writes
// the digest book to w. Re-record only in a change that says why the
// tables moved.
func record(seeds []string, w io.Writer) error {
	b := digestBook{}
	for _, s := range specs {
		b[s.name] = map[string]string{}
		for _, arg := range seeds {
			seed, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("seed %q: %w", arg, err)
			}
			sw := runSweep(s, seed, observers{})
			if sw.err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed, sw.err)
			}
			b[s.name][strconv.FormatInt(seed, 10)] = digestOf(sw.tables)
		}
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
