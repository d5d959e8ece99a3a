"""MLPST: all-MLP spatio-temporal forecasting for grid-based traffic flow.

The package is organised as a small library plus a command-line front end:

- ``mlpst.tensor``      dense f64 primitives with hand-paired backward passes
- ``mlpst.griddata``    grid maps, patch partitioning, temporal slicing
- ``mlpst.mixer``       the model: spatial/temporal mixers, fusion, output head
- ``mlpst.runconfig``   hyperparameters and the key=value run configuration
- ``mlpst.checkpoint``  MLPST2 binary parameter checkpoints
- ``mlpst.training``    loss, Adam, mini-batch training loop
- ``mlpst.evaluation``  metrics, naive baselines, evaluation reports
- ``mlpst.ingestion``   trip aggregation, STGRID1 datasets, synthetic data
- ``mlpst.fileio``      atomic file output
- ``mlpst.cli``         the ``mlpst`` command

This module is intentionally import-light so the CLI can configure thread
caps before numpy is first imported.
"""

__version__ = "0.1.0"
