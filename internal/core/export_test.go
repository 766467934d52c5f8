package core

// Unexported API that the external tests (package core_test, which may
// import ondie) exercise.
var (
	AntiRows   = antiRows
	NewPlanner = newPlanner
)
