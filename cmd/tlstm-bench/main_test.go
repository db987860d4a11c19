package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// Every malformed flag vector must be rejected with exit status 2
// before any figure or sweep runs.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-fig", "bogus"},
		{"-clock", "bogus"},
		{"-cm", "bogus"},
		{"-mode", "bogus"},
		{"-mv", "-1"},
		{"-shards", "3"},
		{"-shards", "-2"},
		{"-affinity"},
		{"-affinity", "-shards", "1"},
		{"-json", "out.json"},
		{"-clocks", "-cms"},
		{"-sched"},
		{"-nosuchflag"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("tlstm-bench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if got := run(fs, args); got != 2 {
				t.Fatalf("run(%q) = %d, want 2", args, got)
			}
		})
	}
}
