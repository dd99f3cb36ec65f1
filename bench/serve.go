package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/service"
)

const (
	serveClients       = 2
	serveMaxConcurrent = 4
)

// serveSpecs is the query mix: cheap and heavy, plain and induced, so a
// client's next query rarely costs what its neighbour's does.
var serveSpecs = []service.Spec{
	{Pattern: "triangle"},
	{Pattern: "wedge"},
	{Pattern: "K4"},
	{Pattern: "diamond"},
	{Pattern: "tailed-triangle"},
	{Pattern: "wedge", Induced: true},
}

func specKey(s service.Spec) string {
	if s.Induced {
		return s.Pattern + "/induced"
	}
	return s.Pattern
}

// openService starts the resident server, dials the clients and runs one
// warm-up round so plans are compiled and the shared cache is filled.
func (in *instance) openService() error {
	srv, err := service.New(in.cl, service.Config{MaxConcurrent: serveMaxConcurrent})
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	in.srv = srv
	for i := 0; i < serveClients; i++ {
		c, err := service.Dial(srv.Addr(), 0)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		in.clients = append(in.clients, c)
	}
	for _, c := range in.clients {
		for _, spec := range serveSpecs {
			if _, err := c.Run(spec); err != nil {
				return fmt.Errorf("warm-up %s: %w", specKey(spec), err)
			}
		}
	}
	return nil
}

func (in *instance) closeService() {
	for _, c := range in.clients {
		c.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
}

// serveOracle counts every pattern of the mix with the reference executor.
func serveOracle(in *instance) error {
	in.ref.counts = make(map[string]uint64, len(serveSpecs))
	t0 := time.Now()
	for _, spec := range serveSpecs {
		pat, err := pattern.Parse(spec.Pattern)
		if err != nil {
			return err
		}
		pl, err := apps.Compile(spec.System, pat, in.g, apps.CompileOptions{Induced: spec.Induced})
		if err != nil {
			return err
		}
		in.ref.counts[specKey(spec)] = plan.CountGraph(pl, in.g)
	}
	in.ref.elapsed = time.Since(t0)
	return nil
}

// serveSample is one client-side query observation.
type serveSample struct {
	kind    int // index into serveSpecs
	latency time.Duration
	err     error
}

// runService is the closed loop: each client submits its next query only
// after the previous one answered, walking a freshly shuffled round of the
// mix until the budget is spent. Clients do not wait for each other.
func (in *instance) runService(b budget, rec *recorder) {
	results := make([][]serveSample, len(in.clients))
	var wg sync.WaitGroup
	for i, c := range in.clients {
		wg.Add(1)
		go func(i int, c *service.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(in.p.seed + 100 + int64(i)))
			order := rng.Perm(len(serveSpecs))
			for round := 0; b.more(round); round++ {
				rng.Shuffle(len(order), func(x, y int) { order[x], order[y] = order[y], order[x] })
				for _, k := range order {
					s := in.serveOne(c, serveSpecs[k])
					s.kind = k
					results[i] = append(results[i], s)
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, rs := range results {
		for _, s := range rs {
			rec.add(s.kind, s.latency, s.err)
		}
	}
}

func (in *instance) serveOne(c *service.Client, spec service.Spec) serveSample {
	t0 := time.Now()
	out, err := c.Run(spec)
	s := serveSample{latency: time.Since(t0)}
	switch {
	case errors.Is(err, service.ErrRejected):
		s.err = fmt.Errorf("%s rejected: %w", specKey(spec), err)
	case err != nil:
		s.err = fmt.Errorf("%s: %w", specKey(spec), err)
	case out.Count != in.ref.counts[specKey(spec)]:
		s.err = fmt.Errorf("%s count %d, oracle %d", specKey(spec), out.Count, in.ref.counts[specKey(spec)])
	}
	return s
}
