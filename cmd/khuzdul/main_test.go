package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"khuzdul/internal/pattern"
)

func TestValidateFlags(t *testing.T) {
	ok := func(nodes, sockets, threads, retries int, to time.Duration, prof string) func(*testing.T) {
		return func(t *testing.T) {
			if err := validateFlags("tc", 4, nodes, sockets, threads, retries, 0, 0.1, 0, to, 0, 0, prof); err != nil {
				t.Fatalf("validateFlags: unexpected error %v", err)
			}
		}
	}
	bad := func(nodes, sockets, threads, retries int, to time.Duration, prof, want string) func(*testing.T) {
		return func(t *testing.T) {
			err := validateFlags("tc", 4, nodes, sockets, threads, retries, 0, 0.1, 0, to, 0, 0, prof)
			if err == nil {
				t.Fatal("validateFlags: expected error, got nil")
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("validateFlags: error %q does not mention %q", err, want)
			}
		}
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
	t.Run("negative retries", bad(8, 1, 2, -1, 0, "", "-retries"))
	// -cache-threshold is a flag.Uint narrowed to uint32: 2^32 would wrap to
	// 0 (then defaulted to 64) and 2^32+1 to 1.
	for _, c := range []uint{1 << 32, 1<<32 + 1} {
		t.Run(fmt.Sprintf("cache threshold %d", c), func(t *testing.T) {
			err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, c, 0, 0, 0, "")
			if err == nil || !strings.Contains(err.Error(), "-cache-threshold") {
				t.Fatalf("validateFlags: error %v does not mention -cache-threshold", err)
			}
		})
	}
	t.Run("cache threshold max ok", func(t *testing.T) {
		if err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, 1<<32-1, 0, 0, 0, ""); err != nil {
			t.Fatalf("validateFlags: unexpected error %v", err)
		}
	})
	// -cache is a fraction of the graph size: NaN, ±Inf and negatives are
	// rejected before the graph loads; 0 disables the cache.
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		t.Run(fmt.Sprintf("cache %v", c), func(t *testing.T) {
			err := validateFlags("tc", 4, 8, 1, 2, 0, 0, c, 0, 0, 0, 0, "")
			if err == nil || !strings.Contains(err.Error(), "-cache ") {
				t.Fatalf("validateFlags: error %v does not mention -cache", err)
			}
		})
	}
	t.Run("cache fractions ok", func(t *testing.T) {
		for _, c := range []float64{0, 0.1, 1} {
			if err := validateFlags("tc", 4, 8, 1, 2, 0, 0, c, 0, 0, 0, 0, ""); err != nil {
				t.Fatalf("validateFlags(-cache %v): unexpected error %v", c, err)
			}
		}
	})
	t.Run("negative inflight", func(t *testing.T) {
		err := validateFlags("tc", 4, 8, 1, 2, 0, -1, 0.1, 0, 0, 0, 0, "")
		if err == nil || !strings.Contains(err.Error(), "-inflight") {
			t.Fatalf("validateFlags: error %v does not mention -inflight", err)
		}
	})
	t.Run("negative timeout", bad(8, 1, 2, 0, -time.Second, "", "-fetch-timeout"))
	t.Run("serve durations ok", func(t *testing.T) {
		if err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, 0, 0, 10*time.Second, time.Minute, ""); err != nil {
			t.Fatalf("validateFlags: unexpected error %v", err)
		}
	})
	t.Run("zero drain timeout ok", func(t *testing.T) {
		if err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, 0, 0, 0, 0, ""); err != nil {
			t.Fatalf("validateFlags: unexpected error %v", err)
		}
	})
	t.Run("negative drain timeout", func(t *testing.T) {
		err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, 0, 0, -time.Second, 0, "")
		if err == nil || !strings.Contains(err.Error(), "-drain-timeout") {
			t.Fatalf("validateFlags: error %v does not mention -drain-timeout", err)
		}
	})
	t.Run("negative query deadline", func(t *testing.T) {
		err := validateFlags("tc", 4, 8, 1, 2, 0, 0, 0.1, 0, 0, 0, -time.Second, "")
		if err == nil || !strings.Contains(err.Error(), "-query-deadline") {
			t.Fatalf("validateFlags: error %v does not mention -query-deadline", err)
		}
	})
	for _, k := range []int{1, 7} {
		t.Run(fmt.Sprintf("motif size %d", k), func(t *testing.T) {
			err := validateFlags("mc", k, 8, 1, 2, 0, 0, 0.1, 0, 0, 0, 0, "")
			if err == nil || !errors.Is(err, pattern.ErrMotifSize) || !strings.Contains(err.Error(), "-k") {
				t.Fatalf("validateFlags: error %v is not an ErrMotifSize naming -k", err)
			}
		})
	}
	for _, k := range []int{0, -1, pattern.MaxVertices + 1} {
		t.Run(fmt.Sprintf("clique size %d", k), func(t *testing.T) {
			err := validateFlags("cc", k, 8, 1, 2, 0, 0, 0.1, 0, 0, 0, 0, "")
			if err == nil || !strings.Contains(err.Error(), "-k") {
				t.Fatalf("validateFlags: error %v does not name -k", err)
			}
		})
	}
	t.Run("motif sizes ok", func(t *testing.T) {
		for k := pattern.MinMotifSize; k <= pattern.MaxMotifSize; k++ {
			if err := validateFlags("mc", k, 8, 1, 2, 0, 0, 0.1, 0, 0, 0, 0, ""); err != nil {
				t.Fatalf("validateFlags: unexpected error %v", err)
			}
		}
	})
	t.Run("malformed profile", bad(8, 1, 2, 0, 0, "err=lots", "-fault-profile"))
	t.Run("unknown profile key", bad(8, 1, 2, 0, 0, "frobnicate=1", "-fault-profile"))
	t.Run("malformed partition", bad(8, 1, 2, 0, 0, "partition=0|@5", "-fault-profile"))
	t.Run("overlapping partition", bad(8, 1, 2, 0, 0, "partition=0|0@5", "-fault-profile"))
	t.Run("bad slow factor", bad(8, 1, 2, 0, 0, "slow=1:0", "-fault-profile"))
}
