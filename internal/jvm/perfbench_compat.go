package jvm

// VerifyMemo, NewVerifyMemo, ShareVerifyMemo and (*VM).SetVerifyMemo
// are no-ops kept only so that perfbench builds unchanged: perfbench's
// campaign replay and its outside-in five-VM pass are their only
// callers, and nothing in this module calls them. The
// method-verification memo they once attached was removed because it
// cost time and memory on every perfbench workload. ROADMAP item 1's
// benchmark change removes those perfbench calls and these
// declarations together.
type VerifyMemo struct{}

// NewVerifyMemo returns a no-op memo.
func NewVerifyMemo() *VerifyMemo { return &VerifyMemo{} }

// ShareVerifyMemo does nothing.
func ShareVerifyMemo([]*VM, *VerifyMemo) {}

// SetVerifyMemo does nothing.
func (vm *VM) SetVerifyMemo(*VerifyMemo) {}
