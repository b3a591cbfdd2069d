package treenet

import "testing"

func mustTree(t *testing.T, p int) *Tree {
	t.Helper()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 9: 2, 27: 3, 28: 4, 256: 6}
	for p, want := range cases {
		if got := mustTree(t, p).Depth(); got != want {
			t.Errorf("depth(%d) = %d, want %d", p, got, want)
		}
	}
}
