package plant

import "testing"

func TestPlant(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}
