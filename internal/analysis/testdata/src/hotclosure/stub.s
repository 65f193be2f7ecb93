// Present so that hotclosure.go may declare functions without bodies.
