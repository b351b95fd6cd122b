package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a TCP listener goroutine (accept loop,
// connection loop, mux worker) or a mux client read loop outlives the
// tests: every test closes its listeners and pools, and Close must stop
// all of them.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := transportGoroutines(5 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running after Close:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// transportGoroutines waits up to patience for the package's transport
// goroutines to exit and returns the stacks of any that remain.
func transportGoroutines(patience time.Duration) string {
	owners := []string{
		"soapbinq/internal/core.ServeTCPListener",
		"soapbinq/internal/core.(*TCPListener).",
		"soapbinq/internal/core.(*muxConn).readLoop",
	}
	deadline := time.Now().Add(patience)
	buf := make([]byte, 1<<20)
	for {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, owner := range owners {
				if strings.Contains(g, owner) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
