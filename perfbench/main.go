package main

import "os"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}
