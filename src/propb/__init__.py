"""Non-2-colorable k-uniform hypergraphs and unsatisfiable monotone k-CNFs.

The construction groups 2l-1 cyclic vertex sequences, cuts edges out of
every l of them with every combination of cyclic shifts and position
blocks, and guarantees, by a majority/pigeonhole argument made effective
through conditional expectations, that every 2-coloring leaves some edge
monochromatic.  Dualizing edges into clause pairs yields unsatisfiable
monotone k-CNF instances.

The package re-exports nothing; import from its modules: params, counting,
construction, witness, satbridge and cli.
"""

__version__ = "0.1.0"
