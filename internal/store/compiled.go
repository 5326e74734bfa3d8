package store

import (
	"context"
	"sort"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/parallel"
	"sitm/internal/symtab"
)

// Context-aware and pre-compiled query entry points for the serving layer
// (DESIGN.md §3.11). SelectCtx/SelectMOsCtx are Select/SelectMOs with
// cooperative cancellation: the shard fan-out stops scheduling once the
// request deadline fires, so a timed-out query releases its workers at
// the next shard boundary instead of finishing the whole plan.
//
// Compile exposes the PR 5 plan compiler as a cacheable artifact. A
// CompiledQuery pins the dictionary and region snapshots it compiled
// against; Valid is pure pointer equality (symtab.SyncDict.Freeze returns
// the same *Dict while the alphabet is unchanged, and AttachRegions
// replaces the table pointer), so a cache hit costs four comparisons.
// Staleness never fails a request: the Select*Compiled entry points fall
// back to a fresh one-shot compilation when the snapshots have rotated —
// the cached artifact degrades to exactly the uncached path.

// CompiledQuery is a query plan compiled by Compile, valid while the
// store's dictionary and region snapshots are unchanged. It is immutable
// and safe for concurrent use.
type CompiledQuery struct {
	src  Query
	plan *cplan
	// Snapshot pointers captured before compilation: the plan is at
	// least as fresh as these, so pointer equality with the live
	// snapshots proves the plan is current (the conservative direction:
	// a rotation between capture and compile only forces a spurious
	// recompile, never a stale hit).
	cells *symtab.Dict
	mos   *symtab.Dict
	pairs *symtab.Dict
	rt    *indoor.RegionTable
}

// Query returns the AST the plan was compiled from.
func (cq *CompiledQuery) Query() Query { return cq.src }

// Compile resolves q against the store's current dictionaries and region
// binding and returns the reusable plan. Errors mirror Select's: only
// structurally invalid queries fail; unknown symbols compile to empty
// plans (which go stale — and recompile — once the symbol is interned).
func (s *Store) Compile(q Query) (*CompiledQuery, error) {
	cq := &CompiledQuery{
		src:   q,
		cells: s.cells.Freeze(),
		mos:   s.mos.Freeze(),
		pairs: s.pairs.Freeze(),
		rt:    s.Regions(),
	}
	plan, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	cq.plan = plan
	return cq, nil
}

// Valid reports whether the plan is still current for s: true iff every
// snapshot it compiled against is still the live one. A false result
// does not invalidate the artifact for serving — Select*Compiled
// recompile transparently — it tells caches the entry is worth replacing.
func (cq *CompiledQuery) Valid(s *Store) bool {
	return s.cells.Freeze() == cq.cells &&
		s.mos.Freeze() == cq.mos &&
		s.pairs.Freeze() == cq.pairs &&
		s.Regions() == cq.rt
}

// freshPlan returns cq's plan if still valid, else a one-shot recompile
// against the live snapshots.
func (cq *CompiledQuery) freshPlan(s *Store) (*cplan, error) {
	if cq.Valid(s) {
		return cq.plan, nil
	}
	return s.compile(cq.src)
}

// SelectCtx is Select with cooperative cancellation: shards stop being
// scheduled once ctx is done and the error is ctx.Err(). A nil error
// means the result is complete.
func (s *Store) SelectCtx(ctx context.Context, q Query) ([]core.Trajectory, error) {
	plan, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	return s.selectTrajs(ctx, plan)
}

// SelectCompiledCtx executes a pre-compiled plan, recompiling
// transparently if the store's snapshots rotated since Compile.
func (s *Store) SelectCompiledCtx(ctx context.Context, cq *CompiledQuery) ([]core.Trajectory, error) {
	plan, err := cq.freshPlan(s)
	if err != nil {
		return nil, err
	}
	return s.selectTrajs(ctx, plan)
}

// SelectMOsCtx is SelectMOs with cooperative cancellation.
func (s *Store) SelectMOsCtx(ctx context.Context, q Query) ([]string, error) {
	plan, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	return s.selectMOsPlan(ctx, plan)
}

// SelectMOsCompiledCtx is SelectMOs over a pre-compiled plan.
func (s *Store) SelectMOsCompiledCtx(ctx context.Context, cq *CompiledQuery) ([]string, error) {
	plan, err := cq.freshPlan(s)
	if err != nil {
		return nil, err
	}
	return s.selectMOsPlan(ctx, plan)
}

// SelectRowsCompiledCtx executes a pre-compiled plan like
// SelectCompiledCtx but materializes nothing: the result holds a reference
// to each matching row — its block's decoded columns or its live
// trajectory — plus frozen dictionary snapshots to name them by. A reply
// encoder reads block rows straight from the columns (see Rows).
func (s *Store) SelectRowsCompiledCtx(ctx context.Context, cq *CompiledQuery) (*Rows, error) {
	plan, err := cq.freshPlan(s)
	if err != nil {
		return nil, err
	}
	refs, err := s.selectPlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	return s.rows(refs), nil
}

// selectPlan is the one row executor of every Select entry point: gather
// runs the plan per shard under the shard read lock and merges the
// matches' row references by insertion sequence.
func (s *Store) selectPlan(ctx context.Context, plan *cplan) ([]rowRef, error) {
	return s.gather(ctx, func(sh *shard, out *shardRows) { //sitm:locked
		ectx := execCtx{s: s, sh: sh}
		sh.addRows(out, plan.exec(&ectx))
	})
}

// selectTrajs runs selectPlan and materializes its rows.
func (s *Store) selectTrajs(ctx context.Context, plan *cplan) ([]core.Trajectory, error) {
	refs, err := s.selectPlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	return s.materialize(refs), nil
}

// selectMOsPlan is the one moving-object executor of every SelectMOs
// entry point: each shard collects the distinct MOs of its matches, and
// since MOs never span shards the sets union without cross-shard dedup.
func (s *Store) selectMOsPlan(ctx context.Context, plan *cplan) ([]string, error) {
	per := make([][]int32, len(s.shards))
	err := parallel.ForEachCtx(ctx, len(s.shards), func(i int) {
		sh := &s.shards[i]
		sh.mu.RLock()
		ectx := execCtx{s: s, sh: sh}
		var seen map[int32]bool
		for _, slot := range plan.exec(&ectx) {
			mo := sh.moIDs[slot]
			if seen == nil {
				seen = make(map[int32]bool)
			}
			if !seen[mo] {
				seen[mo] = true
				per[i] = append(per[i], mo)
			}
		}
		sh.mu.RUnlock()
	})
	if err != nil {
		return nil, err
	}
	var out []string
	snap := s.mos.Freeze() // lock-free Symbol decode of the result batch
	for _, ids := range per {
		for _, mo := range ids {
			out = append(out, snap.Symbol(mo))
		}
	}
	sort.Strings(out)
	return out, nil
}
