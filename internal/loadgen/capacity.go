package loadgen

import (
	"context"
	"fmt"
	"time"

	"mineassess/internal/obs"
)

// CapacityConfig drives the capacity search: soak steps at a geometric
// ladder of arrival rates until the p99 SLO (Config.SLO) or the error
// budget is violated, reporting the last rate that passed. An open-loop
// step either meets the SLO at its full offered rate or fails — there is
// no middle ground where back-pressure quietly lowers the measured rate,
// which is what makes "max sustained arrival rate" a well-defined number.
type CapacityConfig struct {
	// StartRate is the first step's arrival rate (learners/second);
	// default 25.
	StartRate float64
	// Factor multiplies the rate between steps (default 2).
	Factor float64
	// StepDuration is each step's soak length (default 5s).
	StepDuration time.Duration
	// MaxSteps bounds the ladder (default 6).
	MaxSteps int
}

// maxStepErrorRate is a step's failed-operation budget as a fraction of
// its operations.
const maxStepErrorRate = 0.001

// stepSettle is the pause between steps that lets in-flight work and
// journal batches drain, so one step's tail does not bleed into the next.
const stepSettle = 200 * time.Millisecond

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.StartRate <= 0 {
		c.StartRate = 25
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 5 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 6
	}
	return c
}

// CapacityStep is one measured ladder rung.
type CapacityStep struct {
	RatePerSec   float64 `json:"ratePerSec"`
	Offered      int     `json:"offered"`
	RequestCount int64   `json:"requestCount"`
	RequestP99Ms float64 `json:"requestP99Ms"`
	Errors       int64   `json:"errors"`
	ErrorRate    float64 `json:"errorRate"`
	Pass         bool    `json:"pass"`
}

// CapacityResult is the ladder outcome: every step measured plus the
// capacity claim — the highest arrival rate whose step met the p99 SLO
// with errors inside budget.
type CapacityResult struct {
	SLOMs            float64        `json:"sloMs"`
	StepSeconds      float64        `json:"stepSeconds"`
	Steps            []CapacityStep `json:"steps"`
	MaxSustainedRate float64        `json:"maxSustainedRate"`
	// Saturated reports that the ladder actually found the knee (a failing
	// step); false means every step passed and the true capacity is above
	// the last rung.
	Saturated bool `json:"saturated"`
}

// Capacity runs the ladder. Each step reuses the runner's seeded bank and
// shared transport; the cohort and schedule reseed per step so steps are
// independent draws.
func (r *Runner) Capacity(ctx context.Context, cc CapacityConfig) (*CapacityResult, error) {
	cc = cc.withDefaults()
	out := &CapacityResult{SLOMs: obs.Ms(r.cfg.SLO), StepSeconds: cc.StepDuration.Seconds()}
	rate := cc.StartRate
	for step := 0; step < cc.MaxSteps; step++ {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		sched := RampSoak(rate, 0, cc.StepDuration, r.cfg.Seed+int64(step)*7919)
		res, err := r.runSchedule(ctx, sched)
		if err != nil {
			return out, fmt.Errorf("loadgen: capacity step at %.0f/s: %w", rate, err)
		}
		ops := res.RequestCount + res.Errors
		errRate := 0.0
		if ops > 0 {
			errRate = float64(res.Errors) / float64(ops)
		}
		st := CapacityStep{
			RatePerSec:   rate,
			Offered:      res.Offered,
			RequestCount: res.RequestCount,
			RequestP99Ms: res.RequestP99Ms,
			Errors:       res.Errors,
			ErrorRate:    errRate,
			Pass:         res.RequestP99Ms <= out.SLOMs && errRate <= maxStepErrorRate && !res.Interrupted,
		}
		out.Steps = append(out.Steps, st)
		if !st.Pass {
			out.Saturated = true
			break
		}
		out.MaxSustainedRate = rate
		rate *= cc.Factor
		select {
		case <-time.After(stepSettle):
		case <-ctx.Done():
			return out, ctx.Err()
		}
	}
	return out, nil
}
