package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFirstLast(t *testing.T) {
	l := make([]int32, 4)
	First(l, 5)
	if want := []int32{5, 0, 0, 0}; !reflect.DeepEqual(l, want) {
		t.Errorf("First = %v want %v", l, want)
	}
	Last(l, 5)
	if want := []int32{0, 0, 0, 5}; !reflect.DeepEqual(l, want) {
		t.Errorf("Last = %v want %v", l, want)
	}
	if !IsLast(l) {
		t.Error("IsLast(Last) = false")
	}
	First(l, 5)
	if IsLast(l) {
		t.Error("IsLast(First) = true for d>1, n>0")
	}
}

func TestNextEnumeratesAllVectors(t *testing.T) {
	// Walking first..last via Next must produce every l ∈ N₀^d with
	// |l|₁ = n exactly once, C(d-1+n, d-1) vectors in total.
	for _, c := range []struct{ d, n int }{{1, 0}, {1, 4}, {2, 3}, {3, 5}, {4, 4}, {6, 3}} {
		seen := map[string]bool{}
		l := make([]int32, c.d)
		First(l, c.n)
		count := 0
		for {
			if LevelSum(l) != c.n {
				t.Fatalf("d=%d n=%d: Next produced %v with wrong sum", c.d, c.n, l)
			}
			key := string(levelKey(l))
			if seen[key] {
				t.Fatalf("d=%d n=%d: Next repeated %v", c.d, c.n, l)
			}
			seen[key] = true
			count++
			if Next(l) < 0 {
				break
			}
		}
		want, _ := safeBinomial(c.d-1+c.n, c.d-1)
		if int64(count) != want {
			t.Errorf("d=%d n=%d: Next enumerated %d vectors, want %d", c.d, c.n, count, want)
		}
		if !IsLast(l) {
			t.Errorf("d=%d n=%d: enumeration did not end at Last: %v", c.d, c.n, l)
		}
	}
}

func levelKey(l []int32) []byte {
	b := make([]byte, len(l))
	for t, v := range l {
		b[t] = byte(v)
	}
	return b
}

func TestNextMatchesRecursiveEnumeration(t *testing.T) {
	// The iterative Next (Alg. 4) must reproduce the order of the
	// recursive enumerate(d, n) (Alg. 3) exactly.
	for _, c := range []struct{ d, n int }{{2, 4}, {3, 4}, {4, 3}, {5, 5}} {
		want := enumerateRecursive(c.d, c.n)
		l := make([]int32, c.d)
		First(l, c.n)
		for k, w := range want {
			if !reflect.DeepEqual(l, w) {
				t.Fatalf("d=%d n=%d: position %d: Next gave %v, recursion gives %v", c.d, c.n, k, l, w)
			}
			advanced := Next(l) >= 0
			if advanced != (k != len(want)-1) {
				t.Fatalf("d=%d n=%d: Next at position %d advanced=%v", c.d, c.n, k, advanced)
			}
		}
	}
}

// TestNextReturnsHighestChangedIndex pins Next's result over every
// level vector of every group for d ∈ {1..6} and levels ≤ 8, visited
// in the order of the recursive enumeration (Alg. 3) rather than by
// Next itself: from each vector Next must step to the recursion's
// successor and return the highest index whose component changed, and
// from the group's last vector it must return -1 and leave l as it was.
func TestNextReturnsHighestChangedIndex(t *testing.T) {
	for d := 1; d <= 6; d++ {
		for n := 0; n < 8; n++ {
			want := enumerateRecursive(d, n)
			l := make([]int32, d)
			for k, w := range want {
				copy(l, w)
				hi := Next(l)
				if k == len(want)-1 {
					if hi != -1 || !reflect.DeepEqual(l, w) {
						t.Fatalf("d=%d n=%d: Next(last %v) = %d, l = %v; want -1, l unchanged", d, n, w, hi, l)
					}
					continue
				}
				if !reflect.DeepEqual(l, want[k+1]) {
					t.Fatalf("d=%d n=%d: Next(%v) stepped to %v, want %v", d, n, w, l, want[k+1])
				}
				changed := -1
				for j := range l {
					if l[j] != w[j] {
						changed = j
					}
				}
				if hi != changed {
					t.Fatalf("d=%d n=%d: Next(%v) = %d, highest changed index %d", d, n, w, hi, changed)
				}
			}
		}
	}
}

// enumerateRecursive is a direct transcription of the paper's Alg. 3.
func enumerateRecursive(d, n int) [][]int32 {
	if d == 1 {
		return [][]int32{{int32(n)}}
	}
	var out [][]int32
	for k := 0; k <= n; k++ {
		for _, pre := range enumerateRecursive(d-1, n-k) {
			v := make([]int32, d)
			copy(v, pre)
			v[d-1] = int32(k)
			out = append(out, v)
		}
	}
	return out
}

func TestSubspaceIndexConsecutive(t *testing.T) {
	// The paper's lemma: subspaceidx(next(l)) - subspaceidx(l) = 1, with
	// subspaceidx(first) = 0 and subspaceidx(last) = S-1.
	for _, c := range []struct{ d, n int }{{2, 6}, {3, 5}, {5, 4}, {8, 3}, {10, 5}} {
		desc := MustDescriptor(c.d, c.n+1)
		l := make([]int32, c.d)
		First(l, c.n)
		var expect int64
		for {
			if got := desc.SubspaceIndex(l); got != expect {
				t.Fatalf("d=%d n=%d: SubspaceIndex(%v)=%d want %d", c.d, c.n, l, got, expect)
			}
			expect++
			if Next(l) < 0 {
				break
			}
		}
		if expect != desc.Subspaces(c.n) {
			t.Errorf("d=%d n=%d: enumerated %d subspaces, descriptor says %d", c.d, c.n, expect, desc.Subspaces(c.n))
		}
	}
}

func TestSubspaceFromIndexRoundTrip(t *testing.T) {
	for _, c := range []struct{ d, n int }{{1, 4}, {2, 6}, {3, 5}, {6, 4}, {10, 4}} {
		desc := MustDescriptor(c.d, c.n+1)
		l := make([]int32, c.d)
		got := make([]int32, c.d)
		for g := 0; g <= c.n; g++ {
			First(l, g)
			var s int64
			for {
				desc.SubspaceFromIndex(g, s, got)
				if !reflect.DeepEqual(got, l) {
					t.Fatalf("d=%d g=%d: SubspaceFromIndex(%d)=%v want %v", c.d, g, s, got, l)
				}
				s++
				if Next(l) < 0 {
					break
				}
			}
		}
	}
}

func TestSubspaceIndexQuick(t *testing.T) {
	// Property: for random valid level vectors, SubspaceFromIndex inverts
	// SubspaceIndex.
	desc := MustDescriptor(6, 9)
	f := func(raw [6]uint8) bool {
		l := make([]int32, 6)
		budget := 8
		for t := range l {
			v := int(raw[t]) % (budget + 1)
			l[t] = int32(v)
			budget -= v
		}
		g := LevelSum(l)
		s := desc.SubspaceIndex(l)
		back := make([]int32, 6)
		desc.SubspaceFromIndex(g, s, back)
		return reflect.DeepEqual(back, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNextDegenerateCases(t *testing.T) {
	// d = 1: every group has exactly one subspace.
	l := []int32{7}
	if Next(l) != -1 {
		t.Error("Next on d=1 must return -1")
	}
	if l[0] != 7 {
		t.Error("Next must leave l unchanged when returning -1")
	}
	// n = 0: the zero vector is first and last.
	z := []int32{0, 0, 0}
	if Next(z) != -1 {
		t.Error("Next on zero vector must return -1")
	}
	// Carry out of position 0: (1,0) -> (0,1) -> stop.
	v := []int32{1, 0}
	if Next(v) != 1 || !reflect.DeepEqual(v, []int32{0, 1}) {
		t.Errorf("Next((1,0)) = %v want (0,1)", v)
	}
	if Next(v) != -1 {
		t.Error("Next((0,1)) must return -1")
	}
}

func TestLevelSum(t *testing.T) {
	if LevelSum([]int32{1, 2, 3}) != 6 {
		t.Error("LevelSum failed")
	}
	if LevelSum(nil) != 0 {
		t.Error("LevelSum(nil) != 0")
	}
}
