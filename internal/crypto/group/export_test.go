package group

// MemoLen returns the number of membership verdicts g's memo holds.
func MemoLen(g *Group) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}
