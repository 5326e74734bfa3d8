package store

import (
	"sitm/internal/core"
	"sitm/internal/symtab"
)

// Query results before materialization (DESIGN.md §3.11). The executor
// merges row references, not trajectories: a block-backed row is its
// block's decoded columns plus a row index, a live row a pointer to its
// trajectory. Select materializes them (blockCols.traj is the only way a
// block row becomes a core.Trajectory); the server's reply encoder reads
// block rows straight from the columns through BlockRow instead.

// rowRef is one result row: cols and row for a block-backed row, live for
// a live one. Both targets are immutable, so a ref stays valid after the
// shard lock is released, the cache evicts the block, or a checkpoint
// swaps the live row to a block.
type rowRef struct {
	cols *blockCols
	row  int32
	live *core.Trajectory
}

// materialize turns row references into trajectories, naming block rows
// through dictionary snapshots taken after the rows were gathered (every
// id a gathered row holds was interned before it).
func (s *Store) materialize(refs []rowRef) []core.Trajectory {
	if len(refs) == 0 {
		return nil
	}
	rs := s.rows(refs)
	out := make([]core.Trajectory, len(refs))
	for i := range refs {
		out[i] = rs.Trajectory(i)
	}
	return out
}

// rows wraps gathered references with the snapshots that name them.
func (s *Store) rows(refs []rowRef) *Rows {
	return &Rows{refs: refs, cells: s.cells.Freeze(), mos: s.mos.Freeze()}
}

// Rows is a query result in insertion order whose rows are not yet
// materialized. Each row is either live (Live returns its trajectory) or
// block-backed (Block returns a view over its block's columns). Rows is
// immutable and safe for concurrent use.
type Rows struct {
	refs       []rowRef
	cells, mos *symtab.Dict
}

// RowsOf returns the trajectories as a Rows of live rows.
func RowsOf(ts []core.Trajectory) *Rows {
	refs := make([]rowRef, len(ts))
	for i := range ts {
		refs[i].live = &ts[i]
	}
	return &Rows{refs: refs}
}

// Len returns the number of rows (0 for a nil Rows).
func (rs *Rows) Len() int {
	if rs == nil {
		return 0
	}
	return len(rs.refs)
}

// Live returns row i's trajectory when the row is live, else nil.
func (rs *Rows) Live(i int) *core.Trajectory { return rs.refs[i].live }

// Block returns a view of block-backed row i (Live(i) must be nil).
func (rs *Rows) Block(i int) BlockRow {
	r := &rs.refs[i]
	return BlockRow{c: r.cols, r: r.row, cells: rs.cells, mos: rs.mos}
}

// Trajectory materializes row i.
func (rs *Rows) Trajectory(i int) core.Trajectory {
	r := &rs.refs[i]
	if r.live != nil {
		return *r.live
	}
	return r.cols.traj(int(r.row), rs.cells, rs.mos)
}

// BlockRow is a read-only view of one block-backed row: exactly what
// Rows.Trajectory would materialize, read field by field without
// building it. Times are unix nanoseconds of UTC instants; an interval
// count of zero is a nil trace.
type BlockRow struct {
	c          *blockCols
	r          int32
	cells, mos *symtab.Dict
}

// MO returns the row's moving-object id.
func (b BlockRow) MO() string { return b.mos.Symbol(b.c.moIDs[b.r]) }

// Ann returns the row's trajectory annotations.
func (b BlockRow) Ann() AnnView { return AnnView{b.c, b.c.rowAnn[b.r]} }

// Intervals returns the number of presence intervals.
func (b BlockRow) Intervals() int { return len(b.c.encs[b.r]) }

// Cell returns interval j's cell.
func (b BlockRow) Cell(j int) string { return b.cells.Symbol(b.c.encs[b.r][j]) }

// Transition returns interval j's transition.
func (b BlockRow) Transition(j int) string { return b.c.strs[b.iv(j).trans] }

// Span returns interval j's start and end as unix nanoseconds.
func (b BlockRow) Span(j int) (start, end int64) {
	iv := b.iv(j)
	return iv.start, iv.end
}

// IntervalAnn returns interval j's annotations.
func (b BlockRow) IntervalAnn(j int) AnnView { return AnnView{b.c, b.iv(j).ann} }

// TransitionAnn returns interval j's transition annotations.
func (b BlockRow) TransitionAnn(j int) AnnView { return AnnView{b.c, b.iv(j).tann} }

func (b BlockRow) iv(j int) *colIv { return &b.c.ivs[int(b.c.ivOff[b.r])+j] }

// AnnView is a read-only view of one annotation map of a block row: its
// keys in ascending order, each with its values in order.
type AnnView struct {
	c   *blockCols
	set int32
}

// Nil reports a nil map.
func (a AnnView) Nil() bool { return a.set == noAnn }

// Len returns the number of keys.
func (a AnnView) Len() int {
	if a.set == noAnn {
		return 0
	}
	return int(a.c.setOff[a.set+1] - a.c.setOff[a.set])
}

// Key returns the k-th key.
func (a AnnView) Key(k int) string { return a.c.strs[a.key(k).str] }

// Values returns the number of values of the k-th key; zero stands for a
// nil value slice.
func (a AnnView) Values(k int) int {
	key := a.key(k)
	return int(key.v1 - key.v0)
}

// Value returns the v-th value of the k-th key.
func (a AnnView) Value(k, v int) string { return a.c.strs[a.c.vals[int(a.key(k).v0)+v]] }

func (a AnnView) key(k int) *colKey { return &a.c.keys[int(a.c.setOff[a.set])+k] }
