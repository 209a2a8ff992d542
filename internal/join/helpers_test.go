package join

import (
	"context"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Sequential and transient-pool shorthands for the package's tests: the
// library runs every scan through EliminateInnermostOn / JoinAllOn on an
// engine's persistent pool.

// EliminateInnermost is EliminateInnermostOn, sequential and uncached.
func EliminateInnermost[V any](d *semiring.Domain[V], op *semiring.Op[V],
	factors []*factor.Factor[V], vars []int, stats *Stats) (*factor.Factor[V], error) {

	return EliminateInnermostOn(context.Background(), nil, 1, nil, d, op, factors, nil, vars, stats)
}

// JoinAll is JoinAllOn, sequential and uncached.
func JoinAll[V any](d *semiring.Domain[V], factors []*factor.Factor[V], vars []int, stats *Stats) (*factor.Factor[V], error) {
	return JoinAllOn(context.Background(), nil, 1, nil, d, factors, nil, vars, stats)
}

// EliminateInnermostPar is EliminateInnermostOn on a transient pool of
// `workers` goroutines (< 1 means GOMAXPROCS).
func EliminateInnermostPar[V any](d *semiring.Domain[V], op *semiring.Op[V],
	factors []*factor.Factor[V], vars []int, workers int, stats *Stats) (*factor.Factor[V], error) {

	pool := NewPool(workers)
	defer pool.Close()
	return EliminateInnermostOn(context.Background(), pool, 0, nil, d, op, factors, nil, vars, stats)
}

// JoinAllPar is JoinAllOn on a transient pool.
func JoinAllPar[V any](d *semiring.Domain[V], factors []*factor.Factor[V],
	vars []int, workers int, stats *Stats) (*factor.Factor[V], error) {

	pool := NewPool(workers)
	defer pool.Close()
	return JoinAllOn(context.Background(), pool, 0, nil, d, factors, nil, vars, stats)
}
