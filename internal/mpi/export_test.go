package mpi

// WatchPayloads makes see observe every payload a send delivers and every
// payload a receive serves, until the returned function is called.
func WatchPayloads(see func(data []byte)) (stop func()) {
	sawPayload = see
	return func() { sawPayload = nil }
}
