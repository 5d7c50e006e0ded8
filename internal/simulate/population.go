package simulate

import (
	"fmt"
	"math/rand"
	"sync"
)

// Student is one simulated learner.
type Student struct {
	ID string `json:"id"`
	// Ability is the latent trait θ on the IRT scale.
	Ability float64 `json:"ability"`
}

// Population is a cohort of simulated students.
type Population struct {
	Students []Student `json:"students"`
}

// PopulationConfig describes the ability distribution of a cohort.
type PopulationConfig struct {
	// N is the cohort size.
	N int
	// Mean and SD parameterize the normal ability distribution; SD must be
	// non-negative (zero gives a uniform-ability cohort).
	Mean, SD float64
	// Seed makes the cohort reproducible.
	Seed int64
	// IDPrefix prefixes student IDs; default "s".
	IDPrefix string
}

// NewPopulation draws a cohort of N abilities from N(Mean, SD²) with the
// given seed.
func NewPopulation(cfg PopulationConfig) (*Population, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("simulate: population size %d must be positive", cfg.N)
	}
	if cfg.SD < 0 {
		return nil, fmt.Errorf("simulate: ability SD %v must be non-negative", cfg.SD)
	}
	prefix := cfg.IDPrefix
	if prefix == "" {
		prefix = "s"
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := &Population{Students: make([]Student, 0, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		pop.Students = append(pop.Students, Student{
			ID:      fmt.Sprintf("%s%04d", prefix, i+1),
			Ability: cfg.Mean + cfg.SD*rng.NormFloat64(),
		})
	}
	return pop, nil
}

// Stream is an unbounded cohort sampler: it draws students one at a time
// from the same ability distribution NewPopulation uses, without fixing the
// cohort size up front. Load generators use it when the number of virtual
// learners is decided by an arrival process rather than a roster. Next is
// safe for concurrent use.
type Stream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	mean   float64
	sd     float64
	prefix string
	n      int
}

// NewStream builds a cohort sampler from the population config. N is
// ignored (the stream is unbounded); SD must be non-negative.
func NewStream(cfg PopulationConfig) (*Stream, error) {
	if cfg.SD < 0 {
		return nil, fmt.Errorf("simulate: ability SD %v must be non-negative", cfg.SD)
	}
	prefix := cfg.IDPrefix
	if prefix == "" {
		prefix = "s"
	}
	return &Stream{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		mean:   cfg.Mean,
		sd:     cfg.SD,
		prefix: prefix,
	}, nil
}

// Next draws the stream's next student. IDs are sequential and unique
// within the stream; abilities are N(Mean, SD²) draws in a reproducible
// order for a given seed.
func (s *Stream) Next() Student {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return Student{
		ID:      fmt.Sprintf("%s%06d", s.prefix, s.n),
		Ability: s.mean + s.sd*s.rng.NormFloat64(),
	}
}

// Shifted returns a copy of the population with every ability raised by
// delta. It models a teaching intervention between a pre-test and a
// post-test for the Instructional Sensitivity experiment.
func (p *Population) Shifted(delta float64) *Population {
	out := &Population{Students: make([]Student, len(p.Students))}
	for i, s := range p.Students {
		out.Students[i] = Student{ID: s.ID, Ability: s.Ability + delta}
	}
	return out
}

// Size returns the cohort size.
func (p *Population) Size() int {
	return len(p.Students)
}
