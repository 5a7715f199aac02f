package guide

// Bounds the external tests drive streams past.
const (
	MaxInterned = maxInterned
	AbortWindow = abortWindow
)
