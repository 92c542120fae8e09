package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Cost accumulates the two components of the Mobile Server objective.
type Cost struct {
	// Move is the D-weighted movement cost Σ_t D·d(P_t, P_{t+1}).
	Move float64
	// Serve is the total request cost Σ_t Σ_i d(P_serve, v_{t,i}).
	Serve float64
}

// Total returns Move + Serve.
func (c Cost) Total() float64 { return c.Move + c.Serve }

// Add returns the component-wise sum of two costs.
func (c Cost) Add(o Cost) Cost { return Cost{Move: c.Move + o.Move, Serve: c.Serve + o.Serve} }

// String renders the cost with its components.
func (c Cost) String() string {
	return fmt.Sprintf("total=%.6g (move=%.6g serve=%.6g)", c.Total(), c.Move, c.Serve)
}

// StepCost returns the cost of one step in which the server moves from
// `from` to `to` while the given requests are outstanding, under the serve
// order of cfg. For MoveFirst the requests are charged against `to`; for
// AnswerFirst against `from`. The movement itself costs D·d(from,to) in
// both orders.
func StepCost(cfg Config, from, to geom.Point, requests []geom.Point) Cost {
	servePos := to
	if cfg.Order == AnswerFirst {
		servePos = from
	}
	c := Cost{Move: cfg.D * geom.Dist(from, to)}
	for _, v := range requests {
		c.Serve += geom.Dist(servePos, v)
	}
	return c
}

// NearestServeCost returns Σ_v min_j d(positions[j], v): every request is
// served by its nearest server. With a single position it reduces to the
// paper's serve cost. It takes one square root per request, of the
// smallest squared distance: sqrt is monotone and correctly rounded, so
// that is exactly the smallest of the Dist values.
func NearestServeCost(positions, requests []geom.Point) float64 {
	total := 0.0
	for _, v := range requests {
		best := math.Inf(1)
		for _, p := range positions {
			if d := geom.DistSq(p, v); d < best {
				best = d
			}
		}
		total += math.Sqrt(best)
	}
	return total
}

// FleetStepCost returns the cost of one step in which the fleet moves from
// prev to next (one entry per server) while the given requests are
// outstanding, under the serve order of cfg. For MoveFirst the requests are
// charged against the next positions; for AnswerFirst against prev. Each
// server's movement costs D times its distance. For a single server it
// coincides exactly with StepCost.
func FleetStepCost(cfg Config, prev, next []geom.Point, requests []geom.Point) Cost {
	var c Cost
	for j := range next {
		c.Move += cfg.D * geom.Dist(prev[j], next[j])
	}
	servePos := next
	if cfg.Order == AnswerFirst {
		servePos = prev
	}
	c.Serve = NearestServeCost(servePos, requests)
	return c
}

// TrajectoryCost returns the total cost of following positions[0..T] on the
// instance, where positions[0] must equal in.Start and positions[t+1] is
// the server position after the move of step t. It does not check the
// movement cap; use sim.Run or offline.CheckFeasible for that.
func TrajectoryCost(in *Instance, positions []geom.Point) (Cost, error) {
	if len(positions) != in.T()+1 {
		return Cost{}, fmt.Errorf("core: trajectory has %d positions, want %d", len(positions), in.T()+1)
	}
	if !positions[0].Equal(in.Start) {
		return Cost{}, fmt.Errorf("core: trajectory starts at %v, instance starts at %v", positions[0], in.Start)
	}
	var total Cost
	for t, s := range in.Steps {
		total = total.Add(StepCost(in.Config, positions[t], positions[t+1], s.Requests))
	}
	return total, nil
}
