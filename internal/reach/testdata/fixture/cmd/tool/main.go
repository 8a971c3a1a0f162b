package main

import "example.com/fixture/inner"

func main() { inner.Tool() }
