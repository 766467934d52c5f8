// Command app is the fixture module's one caller of lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	w := lib.New()
	var n lib.Namer = w
	fmt.Println(n.Name())
}
