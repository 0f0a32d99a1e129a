package hyqsat

import "testing"

// TestEmbedBenchFixture sanity-checks the bench harness: the cold Fast
// pipeline must embed the fixture queue.
func TestEmbedBenchFixture(t *testing.T) {
	eb, err := NewEmbedBench(16)
	if err != nil {
		t.Fatal(err)
	}
	if got := eb.ColdFast(); got == 0 {
		t.Fatal("cold Fast embedded nothing")
	}
}
