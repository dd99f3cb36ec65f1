package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"khuzdul"
	"khuzdul/internal/pattern"
)

func TestValidateFlags(t *testing.T) {
	// flags is the -app tc command line with the given cluster sizes,
	// retries, fetch timeout and fault profile; everything else at its
	// default.
	flags := func(nodes, sockets, threads, retries int, to time.Duration, prof string) clusterFlags {
		return clusterFlags{nodes: nodes, sockets: sockets, threads: threads, retries: retries,
			fetchTO: to, faultProf: prof, cacheFrac: 0.1}
	}
	def := flags(8, 1, 2, 0, 0, "")
	accept := func(app string, k, maxEdges int, f clusterFlags, drainTO, deadline time.Duration) func(*testing.T) {
		return func(t *testing.T) {
			if _, err := validateFlags(app, k, maxEdges, f, drainTO, deadline); err != nil {
				t.Fatalf("validateFlags: unexpected error %v", err)
			}
		}
	}
	// reject expects an error naming want: the flag for checks only the
	// command line makes, the Config field for checks Config.Validate makes.
	reject := func(app string, k, maxEdges int, f clusterFlags, drainTO, deadline time.Duration, want string) func(*testing.T) {
		return func(t *testing.T) {
			_, err := validateFlags(app, k, maxEdges, f, drainTO, deadline)
			if err == nil {
				t.Fatal("validateFlags: expected error, got nil")
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("validateFlags: error %q does not mention %q", err, want)
			}
		}
	}
	ok := func(nodes, sockets, threads, retries int, to time.Duration, prof string) func(*testing.T) {
		return accept("tc", 4, 3, flags(nodes, sockets, threads, retries, to, prof), 0, 0)
	}
	bad := func(nodes, sockets, threads, retries int, to time.Duration, prof, want string) func(*testing.T) {
		return reject("tc", 4, 3, flags(nodes, sockets, threads, retries, to, prof), 0, 0, want)
	}
	with := func(edit func(*clusterFlags)) clusterFlags {
		f := def
		edit(&f)
		return f
	}
	t.Run("defaults", ok(8, 1, 2, 0, 0, ""))
	t.Run("full resilience", ok(4, 2, 2, 3, 100*time.Millisecond,
		"seed=7,err=0.05,corrupt=0.01,drop=0.01,partition=0|1@500,slow=2:20,crash=3@500"))
	t.Run("profile off", ok(1, 1, 1, 0, 0, "none"))
	t.Run("zero nodes", bad(0, 1, 2, 0, 0, "", "-nodes"))
	t.Run("negative nodes", bad(-3, 1, 2, 0, 0, "", "-nodes"))
	t.Run("zero sockets", bad(8, 0, 2, 0, 0, "", "-sockets"))
	t.Run("zero threads", bad(8, 1, 0, 0, 0, "", "-threads"))
	t.Run("negative threads", bad(8, 1, -1, 0, 0, "", "-threads"))
	t.Run("negative retries", bad(8, 1, 2, -1, 0, "", "FetchRetries"))
	// -cache-threshold is a flag.Uint narrowed to uint32: 2^32 would wrap to
	// 0 (then defaulted to 64) and 2^32+1 to 1.
	for _, c := range []uint{1 << 32, 1<<32 + 1} {
		t.Run(fmt.Sprintf("cache threshold %d", c),
			reject("tc", 4, 3, with(func(f *clusterFlags) { f.cacheDeg = c }), 0, 0, "-cache-threshold"))
	}
	t.Run("cache threshold max ok", accept("tc", 4, 3, with(func(f *clusterFlags) { f.cacheDeg = 1<<32 - 1 }), 0, 0))
	// -cache is a fraction of the graph size: NaN, ±Inf and negatives are
	// rejected before the graph loads; 0 disables the cache.
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		t.Run(fmt.Sprintf("cache %v", c), func(t *testing.T) {
			_, err := validateFlags("tc", 4, 3, with(func(f *clusterFlags) { f.cacheFrac = c }), 0, 0)
			if !errors.Is(err, khuzdul.ErrInvalidConfig) || !strings.Contains(err.Error(), "CacheFraction") {
				t.Fatalf("validateFlags: error %v is not an ErrInvalidConfig naming CacheFraction", err)
			}
		})
	}
	t.Run("cache fractions ok", func(t *testing.T) {
		for _, c := range []float64{0, 0.1, 1} {
			if _, err := validateFlags("tc", 4, 3, with(func(f *clusterFlags) { f.cacheFrac = c }), 0, 0); err != nil {
				t.Fatalf("validateFlags(-cache %v): unexpected error %v", c, err)
			}
		}
	})
	t.Run("negative inflight", reject("tc", 4, 3, with(func(f *clusterFlags) { f.inflight = -1 }), 0, 0, "InFlight"))
	t.Run("negative timeout", bad(8, 1, 2, 0, -time.Second, "", "FetchTimeout"))
	t.Run("serve durations ok", accept("tc", 4, 3, def, 10*time.Second, time.Minute))
	t.Run("zero drain timeout ok", accept("tc", 4, 3, def, 0, 0))
	t.Run("negative drain timeout", reject("tc", 4, 3, def, -time.Second, 0, "-drain-timeout"))
	t.Run("negative query deadline", reject("tc", 4, 3, def, 0, -time.Second, "-query-deadline"))
	for _, k := range []int{1, 7} {
		t.Run(fmt.Sprintf("motif size %d", k), func(t *testing.T) {
			_, err := validateFlags("mc", k, 3, def, 0, 0)
			if err == nil || !errors.Is(err, pattern.ErrMotifSize) || !strings.Contains(err.Error(), "-k") {
				t.Fatalf("validateFlags: error %v is not an ErrMotifSize naming -k", err)
			}
		})
	}
	for _, k := range []int{0, -1, pattern.MaxVertices + 1} {
		t.Run(fmt.Sprintf("clique size %d", k), reject("cc", k, 3, def, 0, 0, "-k"))
	}
	t.Run("motif sizes ok", func(t *testing.T) {
		for k := pattern.MinMotifSize; k <= pattern.MaxMotifSize; k++ {
			if _, err := validateFlags("mc", k, 3, def, 0, 0); err != nil {
				t.Fatalf("validateFlags: unexpected error %v", err)
			}
		}
	})
	// -max-edges bounds FSM's pattern growth; below 1 there is nothing to
	// mine, and the miner used to fall back to 3 without a word.
	for _, e := range []int{0, -1} {
		t.Run(fmt.Sprintf("fsm max edges %d", e), reject("fsm", 4, e, def, 0, 0, "-max-edges"))
	}
	t.Run("fsm max edges 1 ok", accept("fsm", 4, 1, def, 0, 0))
	t.Run("malformed profile", bad(8, 1, 2, 0, 0, "err=lots", "-fault-profile"))
	t.Run("unknown profile key", bad(8, 1, 2, 0, 0, "frobnicate=1", "-fault-profile"))
	t.Run("malformed partition", bad(8, 1, 2, 0, 0, "partition=0|@5", "-fault-profile"))
	t.Run("overlapping partition", bad(8, 1, 2, 0, 0, "partition=0|0@5", "-fault-profile"))
	t.Run("bad slow factor", bad(8, 1, 2, 0, 0, "slow=1:0", "-fault-profile"))
	// A profile naming a machine the cluster does not have used to inject
	// nothing and report a clean success.
	t.Run("crash node outside cluster", bad(4, 1, 2, 0, 0, "crash=7@100", "Fault"))
	t.Run("partition node outside cluster", bad(4, 1, 2, 0, 0, "partition=0|4@5", "Fault"))
	t.Run("slow node outside cluster", bad(4, 1, 2, 0, 0, "slow=9:2", "Fault"))
	t.Run("unknown cache policy", reject("tc", 4, 3, with(func(f *clusterFlags) { f.cachePol = "bogus" }), 0, 0, "-cache-policy"))
}
