"""From probability weights to a beamsplitter chain.

The estimation weights live in the first column of the network unitary,
and the survival probability depends on nothing else.  This script builds
that column for a five-channel example as a chain of M - 1 real rotations
on adjacent mode pairs, prints the netlist a lab would wire up, and checks
the network the netlist describes with dense matrices: the independent
route to the residuals ``sqzmet synthesize`` measures element by element.
"""

import numpy as np

from sqzmet import (
    embed_weights_unitary,
    mesh_to_netlist,
    parse_netlist,
    recompose,
    unitarity_defect,
    weight_chain,
)

weights = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
netlist = mesh_to_netlist(weight_chain(weights))
chain = parse_netlist(netlist)
built = recompose(chain)

print("first column          :", np.round(built[:, 0].real, 6))
print("sqrt(weights)         :", np.round(np.sqrt(weights), 6))
print(f"chain elements        : {len(chain.elements)} (M - 1 = {weights.size - 1})")
print(f"first-column residual : {np.max(np.abs(built[:, 0] - np.sqrt(weights))):.3e}")
print(f"unitarity residual    : {unitarity_defect(built):.3e}")
print(f"round-trip residual   : {np.linalg.norm(built - embed_weights_unitary(weights)):.3e}")
print()
print("netlist")
print("-------")
print(netlist)

# Concentrating all weight on one channel needs no interference: the chain
# just routes the light down to that channel.  All weight on channel 1 needs
# no element at all.
print("all weight on channel 3 ->")
print(mesh_to_netlist(weight_chain([0.0, 0.0, 1.0])))
print("all weight on channel 1 ->", len(weight_chain([1.0, 0.0, 0.0]).elements), "elements")
