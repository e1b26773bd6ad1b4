package obsflags

import (
	"errors"
	"testing"
)

// TestSimIntegrity pins that a malformed -inject is a usage error.
func TestSimIntegrity(t *testing.T) {
	if _, _, err := (&Sim{Inject: "no-such-fault"}).Integrity(); !errors.Is(err, ErrUsage) {
		t.Errorf("Integrity() with a malformed -inject = %v, want ErrUsage", err)
	}
}
