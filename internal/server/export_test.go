package server

// MaxResponseBytes lets a test lower the cap on the answer a Client
// reads.
var MaxResponseBytes = &maxResponseBytes
