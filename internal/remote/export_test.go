package remote

// InstanceCount reports how many registrations the worker holds, so
// lifecycle tests can see a registration end with its control
// connection.
func InstanceCount(w *Worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.insts)
}
