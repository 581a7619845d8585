package micropnp

// GidCalls returns how many goroutine-id lookups the SDK has made so far in
// this process.
func GidCalls() int64 { return gidCalls.Load() }
