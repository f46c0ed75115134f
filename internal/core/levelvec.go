package core

// Level-vector enumeration (paper Sec. 4.2). The recursive scheme
// enumerate(d, n) (Alg. 3) induces a total order on the set
// L^d_n = { l ∈ N₀^d : |l|₁ = n }; the iterative successor function Next
// (Alg. 4) walks that order on the GPU and in the iterative evaluation
// algorithm, and SubspaceIndex (Eq. 4) ranks a vector within it in O(d).

// First overwrites l with the first level vector of level group n in the
// enumeration order: (n, 0, ..., 0).
func First(l []int32, n int) {
	l[0] = int32(n)
	for t := 1; t < len(l); t++ {
		l[t] = 0
	}
}

// Last overwrites l with the last level vector of level group n:
// (0, ..., 0, n).
func Last(l []int32, n int) {
	for t := 0; t < len(l)-1; t++ {
		l[t] = 0
	}
	l[len(l)-1] = int32(n)
}

// IsLast reports whether l is the final vector of its level group,
// i.e. all mass sits in the last component.
func IsLast(l []int32) bool {
	for t := 0; t < len(l)-1; t++ {
		if l[t] != 0 {
			return false
		}
	}
	return true
}

// Next advances l in place to its successor within the level group
// (paper Alg. 4) and returns the highest index whose component changed.
// It returns -1 when l is the last vector of the group (including the
// d = 1 and |l|₁ = 0 cases), leaving l unchanged.
//
// The step: find the smallest t with l[t] ≠ 0 — the first t+1 components
// then read last(t+1, l[t]) — zero it, restart the prefix at
// first(t+1, l[t]-1), and carry one unit into component t+1. Only l[0],
// l[t] and l[t+1] change, and l[t+1] always does, so the result is t+1:
// a kernel that folds a product over the components from d-1 down to 0
// keeps its partial folds above t+1 (DESIGN.md §8.1).
func Next(l []int32) int {
	d := len(l)
	t := 0
	for t < d && l[t] == 0 {
		t++
	}
	if t >= d-1 {
		// Either the zero vector (t == d) or only the last component is
		// nonzero: this is last(d, n).
		return -1
	}
	m := l[t]
	l[t] = 0
	l[0] = m - 1 // after l[t] = 0 so that t == 0 is handled by ordering
	l[t+1]++
	return t + 1
}

// SubspaceIndex ranks l within its level group under the enumeration
// order (paper Eq. 4):
//
//	subspaceidx(l) = Σ_{t=1}^{d-1} [ C(t+Σ_{j≤t} l_j, t) − C(t+Σ_{j<t} l_j, t) ]
//
// It is 0 for First and Subspaces(g)-1 for Last, and increments by exactly
// one along Next (the paper's consecutive-index lemma).
func (d *Descriptor) SubspaceIndex(l []int32) int64 {
	sum := int(l[0])
	var idx int64
	for t := 1; t < d.dim; t++ {
		idx -= d.binom[t][sum]
		sum += int(l[t])
		idx += d.binom[t][sum]
	}
	return idx
}

// SubspaceFromIndex inverts SubspaceIndex: it fills l with the level
// vector of level group g whose rank in the enumeration order is s.
// It is the combinatorial inverse of the order induced by Alg. 3: the
// block of vectors sharing l[t] = k (scanning components from the last
// one down) has size C(t-1 + n-k, t-1) where n is the remaining level
// budget, so each component is recovered by peeling cumulative block
// sizes off the rank.
func (d *Descriptor) SubspaceFromIndex(g int, s int64, l []int32) {
	n := g
	rem := s
	for t := d.dim - 1; t >= 1; t-- {
		k := 0
		for {
			block := d.binom[t-1][n-k] // |enumerate(t, n-k)| = C(t-1+n-k, t-1)
			if rem < block {
				break
			}
			rem -= block
			k++
		}
		l[t] = int32(k)
		n -= k
	}
	l[0] = int32(n)
}

// LevelSum returns |l|₁.
func LevelSum(l []int32) int {
	s := 0
	for _, v := range l {
		s += int(v)
	}
	return s
}
