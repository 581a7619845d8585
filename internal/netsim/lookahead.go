package netsim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lookahead maintains the per-lane-pair lookahead matrix of a zone-sharded
// network: minHops[i][j] is the minimum tree distance (hops) between any node
// in lane i and any node in lane j. Every cross-lane interaction is a packet
// delivery whose delay is at least hops × ShardQuantum (see ShardedClock), so
// L(j→i) = minHops[j][i] × quantum lower-bounds how far into lane i's future
// an event executing on lane j can reach. The sharded clock turns the matrix
// into per-lane window bounds at each barrier; lanes whose zones are far
// apart in the routing tree then run many quanta ahead of each other instead
// of advancing in lock-step one-hop windows.
//
// The matrix is maintained incrementally under AddNode (topology only grows;
// parent links are immutable), so every entry is the exact all-pairs minimum:
//
//   - Same-tree pairs: each node keeps minDown[j], the minimum depth offset
//     of any lane-j node in its subtree. Adding v walks its ancestor chain;
//     at ancestor a with offset off = depth(v)−depth(a), off+a.minDown[j]
//     is the v→(nearest lane-j node under a) path length through a. At the
//     true LCA of the closest pair this is exact, at higher ancestors it
//     only overestimates, so relaxing with every candidate lands on the
//     exact minimum. The walk then folds v into each ancestor's minDown.
//   - Cross-tree pairs (disjoint DODAGs route over the synthetic backbone
//     edge, distance depth(a)+depth(b)+1): per lane the two smallest node
//     depths under distinct roots are tracked; the pairwise minimum over
//     distinct-root combinations is exact by the usual two-best argument.
//
// An entry with no node pair yet is unknown (-1) and snapshots to the
// conservative one-hop quantum, the bound that holds for any lane pair.
type Lookahead struct {
	mu    sync.Mutex
	lanes int
	// minHops is the lanes×lanes symmetric matrix of minimum cross-lane tree
	// distances, -1 where no pair exists yet. The diagonal is unused (windows
	// only consult j≠i).
	minHops []int32
	// depths tracks, per lane, the two smallest node depths under distinct
	// roots (for the cross-tree backbone bound).
	depths []laneDepth
	// version increments on every matrix change; the sharded clock
	// re-snapshots its effective window matrix at the next barrier when it
	// moved, so mid-run AddNode churn is picked up without per-round locking.
	version atomic.Uint64
}

// laneDepth is one lane's two smallest node depths under distinct roots:
// best is the global minimum, alt the minimum among nodes under a root other
// than bestRoot (-1 roots = absent).
type laneDepth struct {
	best     int32
	bestRoot *Node
	alt      int32
	altRoot  *Node
}

func newLookahead(lanes int) *Lookahead {
	la := &Lookahead{
		lanes:   lanes,
		minHops: make([]int32, lanes*lanes),
		depths:  make([]laneDepth, lanes),
	}
	for i := range la.minHops {
		la.minHops[i] = -1
	}
	return la
}

// addNode folds a newly added node into the matrix. The caller (Network.
// AddNode) holds topoMu, so parent/depth/lane are final and the ancestor
// chain is stable; la.mu orders the update against barrier snapshots.
func (la *Lookahead) addNode(v *Node) {
	la.mu.Lock()
	defer la.mu.Unlock()
	lv := int(v.lane)
	v.minDown = make([]int32, la.lanes)
	for i := range v.minDown {
		v.minDown[i] = -1
	}
	v.minDown[lv] = 0
	changed := false
	root := v
	for a, off := v.parent, int32(1); a != nil; a, off = a.parent, off+1 {
		root = a
		for j, down := range a.minDown {
			if down < 0 || j == lv {
				continue
			}
			if la.relax(lv, j, off+down) {
				changed = true
			}
		}
		if cur := a.minDown[lv]; cur < 0 || off < cur {
			a.minDown[lv] = off
		}
	}
	if la.depths[lv].update(int32(v.depth), root) {
		// New pairs across the backbone can only involve v's lane: a fresh
		// node changes no other lane's depth record.
		for j := 0; j < la.lanes; j++ {
			if j == lv {
				continue
			}
			if bound, ok := crossBound(&la.depths[lv], &la.depths[j]); ok && la.relax(lv, j, bound) {
				changed = true
			}
		}
	}
	if changed {
		la.version.Add(1)
	}
}

// relax lowers the symmetric (i, j) entry to d if smaller, reporting change.
func (la *Lookahead) relax(i, j int, d int32) bool {
	idx := i*la.lanes + j
	if cur := la.minHops[idx]; cur >= 0 && cur <= d {
		return false
	}
	la.minHops[idx] = d
	la.minHops[j*la.lanes+i] = d
	return true
}

// update folds one node's (depth, root) into the lane record, reporting
// whether either tracked minimum moved.
func (ld *laneDepth) update(depth int32, root *Node) bool {
	switch {
	case ld.bestRoot == nil:
		ld.best, ld.bestRoot = depth, root
		return true
	case root == ld.bestRoot:
		if depth < ld.best {
			ld.best = depth
			return true
		}
		return false
	case depth < ld.best:
		// The old best stays the minimum over roots other than the new one:
		// any previous alt was >= it (best is the global minimum).
		ld.alt, ld.altRoot = ld.best, ld.bestRoot
		ld.best, ld.bestRoot = depth, root
		return true
	case ld.altRoot == nil || root == ld.altRoot:
		if ld.altRoot == nil || depth < ld.alt {
			ld.alt, ld.altRoot = depth, root
			return true
		}
		return false
	case depth < ld.alt:
		ld.alt, ld.altRoot = depth, root
		return true
	}
	return false
}

// crossBound is the exact minimum backbone distance between two lanes'
// distinct-root node pairs: min over combinations of the two-best depth
// records with differing roots of depth_i + depth_j + 1.
func crossBound(di, dj *laneDepth) (int32, bool) {
	best := int32(-1)
	consider := func(a, b int32, ra, rb *Node) {
		if ra == nil || rb == nil || ra == rb {
			return
		}
		if c := a + b + 1; best < 0 || c < best {
			best = c
		}
	}
	consider(di.best, dj.best, di.bestRoot, dj.bestRoot)
	consider(di.best, dj.alt, di.bestRoot, dj.altRoot)
	consider(di.alt, dj.best, di.altRoot, dj.bestRoot)
	return best, best >= 0
}

// snapshotNs fills dst (lanes×lanes) with the effective lookahead in
// nanoseconds — minHops × quantum, the conservative one-hop quantum where no
// pair is known — and returns the matrix version the snapshot reflects.
func (la *Lookahead) snapshotNs(quantum time.Duration, dst []int64) uint64 {
	la.mu.Lock()
	defer la.mu.Unlock()
	q := int64(quantum)
	for k, h := range la.minHops {
		if h < 1 {
			dst[k] = q
		} else {
			dst[k] = int64(h) * q
		}
	}
	return la.version.Load()
}

// pairHops returns the tracked minimum hop distance between two lanes
// (-1 = no pair known). Test hook.
func (la *Lookahead) pairHops(i, j int) int {
	la.mu.Lock()
	defer la.mu.Unlock()
	return int(la.minHops[i*la.lanes+j])
}
