package harness

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/mode"
)

// Flags is the command-line surface tlstm-bench and tlstm-stress share:
// the runtime knobs, one boolean per Sweeps entry and -json.
type Flags struct {
	clock, cm, mode, json *string
	mv, shards            *int
	affinity              *bool
	sweeps                []*bool
}

// RegisterFlags registers the shared flags on fs; target names what
// the knobs configure in the command's default run.
func RegisterFlags(fs *flag.FlagSet, target string) *Flags {
	f := &Flags{
		clock:    fs.String("clock", "gv4", `commit-clock strategy for `+target+`: "gv4", "deferred", "sharded" or "gv7"`),
		cm:       fs.String("cm", "default", `contention-management policy for `+target+`: "suicide", "backoff", "greedy", "karma", "taskaware" or "default" (each runtime's own)`),
		mode:     fs.String("mode", "spec", `execution-mode policy for `+target+`: "spec" (always speculative), "adaptive" (ladder with serialized fallback under sustained conflict) or "serial"`),
		mv:       fs.Int("mv", 0, "retained version depth for "+target+" (0 disables multi-versioning)"),
		shards:   fs.Int("shards", 0, "lock-table shard count for "+target+" (a power of two; 0 or 1 keeps the flat table)"),
		affinity: fs.Bool("affinity", false, "replace static round-robin thread placement with the conflict-sketch affinity policy (requires -shards > 1)"),
		json:     fs.String("json", "", "with a sweep flag: also write the sweep's rows as JSON to this file"),
	}
	for _, s := range Sweeps {
		f.sweeps = append(f.sweeps, fs.Bool(s.Flag, false,
			fmt.Sprintf("instead of %s, run the invariant-checked %s: %s", target, s.Title, s.About)))
	}
	return f
}

// Parse validates the parsed flags and returns the runtime Config the
// knobs select and the sweep to run (nil when no sweep flag was given).
// It rejects malformed values up front instead of clamping them or
// failing minutes into a run.
func (f *Flags) Parse() (Config, *Sweep, error) {
	var c Config
	var err error
	if c.Clock, err = clock.Parse(*f.clock); err != nil {
		return c, nil, err
	}
	if c.CM, err = cm.Parse(*f.cm); err != nil {
		return c, nil, err
	}
	if c.Mode.Policy, err = mode.Parse(*f.mode); err != nil {
		return c, nil, err
	}
	c.MV, c.Shards, c.Affinity = *f.mv, *f.shards, *f.affinity
	switch {
	case c.MV < 0:
		return c, nil, fmt.Errorf("-mv %d: retained version depth cannot be negative", c.MV)
	case c.Shards < 0 || c.Shards&(c.Shards-1) != 0:
		return c, nil, fmt.Errorf("-shards %d: shard count must be a power of two", c.Shards)
	case c.Affinity && c.Shards <= 1:
		return c, nil, errors.New("-affinity requires -shards > 1 (a flat lock table has nowhere to place threads)")
	}
	var sw *Sweep
	for i, on := range f.sweeps {
		if !*on {
			continue
		}
		if sw != nil {
			return c, nil, fmt.Errorf("-%s and -%s: give at most one sweep flag", sw.Flag, Sweeps[i].Flag)
		}
		sw = &Sweeps[i]
	}
	if sw == nil && *f.json != "" {
		return c, nil, errors.New("-json needs a sweep flag")
	}
	return c, sw, nil
}

// RunSweep runs s at threads × txPerThread, prints a header and one row
// per cell, and writes the rows as JSON when -json was given. Every
// cell's end state is checked inside s.Run, which panics on a violation.
func (f *Flags) RunSweep(s *Sweep, threads, txPerThread int) error {
	fmt.Printf("## %s (%d threads, %d tx/thread)\n", s.Title, threads, txPerThread)
	results := s.Run(threads, txPerThread)
	for _, r := range results {
		fmt.Println(r)
	}
	if *f.json != "" {
		doc := struct {
			Sweep       string   `json:"sweep"`
			Threads     int      `json:"threads"`
			TxPerThread int      `json:"txPerThread"`
			Results     []Result `json:"results"`
		}{s.Flag, threads, txPerThread, results}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*f.json, append(buf, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	fmt.Println("OK: every end state verified")
	return nil
}
