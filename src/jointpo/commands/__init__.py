"""One module per command of :mod:`jointpo.cli`, each with its ``run(args)``:
the command's body, its batch statistic and its ``--plot-data`` writer.
``cli.main`` imports only the module of the command it runs."""
