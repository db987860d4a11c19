package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// Every malformed flag vector must be rejected with exit status 2
// before the soak or a sweep starts: none may panic, fall back to a
// default, or pass vacuously over zero transactions.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sched", "bogus"},
		{"-sched", "inline", "-depth", "3"},
		{"-depth", "0"},
		{"-accounts", "0"},
		{"-threads", "0"},
		{"-seconds", "-1"},
		{"-seconds", "0"},
		{"-seconds", "0", "-clocks"},
		{"-romix", "101"},
		{"-reclaim", "-1"},
		{"-clock", "bogus"},
		{"-cm", "bogus"},
		{"-mode", "bogus"},
		{"-mv", "-1"},
		{"-shards", "3"},
		{"-affinity"},
		{"-json", "out.json"},
		{"-mvs", "-shardss"},
		{"-nosuchflag"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("tlstm-stress", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if got := run(fs, args); got != 2 {
				t.Fatalf("run(%q) = %d, want 2", args, got)
			}
		})
	}
}
