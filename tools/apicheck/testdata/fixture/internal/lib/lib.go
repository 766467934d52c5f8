// Package lib holds one exported name of each kind the API check
// classifies.
package lib

// Namer is what the command calls through.
type Namer interface{ Name() string }

// Widget is reachable only through New's signature: the command holds a
// *Widget without naming the type.
type Widget struct{}

// Name has no direct caller; it is reached through Namer.
func (Widget) Name() string { return "widget" }

// New is called by the command.
func New() *Widget { return &Widget{} }

// Unused has no caller at all.
func Unused() {}

// TestOnly is called only by a test.
func TestOnly() int { return 1 }
