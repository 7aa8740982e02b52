// Command use is the planted module's one caller.
package main

import (
	"fmt"

	"plant/internal/plant"
)

func main() { fmt.Println(plant.T{}) }
