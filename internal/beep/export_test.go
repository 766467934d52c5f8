package beep

// chipWord lets the external tests (package beep_test, which may import
// ondie) build the chip-backed word tester.
type ChipWord = chipWord
