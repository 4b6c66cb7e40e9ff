"""spdclab: multi-pair SPDC entanglement experiments end to end.

Subpackages and modules:

* ``qstate``    exact few-photon polarization states, GHZ witness algebra,
                post-selected PBS fusion
* ``witness``   fidelity estimation and Poisson error propagation from
                coincidence counts
* ``hyptest``   distribution-free p-value bound for the bi-separability test
* ``crystal``   refractive indices, walk-off, d_eff and phase matching for
                uniaxial/biaxial crystals
* ``rates``     relative pair-generation rates of two source configurations
* ``simulator`` Monte Carlo model of the pulsed five-source experiment
* ``sampling``  seeded binomial and multinomial draws on ``random.Random``
* ``cli``       command-line interface (``spdclab`` entry point): parser,
                exit codes, loaders and the standard-library commands,
                ``simulate`` among them
* ``numpy_commands``  ``crystal summary|curve|rings`` handlers, which run on
                numpy; imported by ``cli`` only when dispatched to
* ``fileio``    JSON, text and CSV-table I/O; the one JSON reader and record check
* ``_record``   ``_Record``, the read-only base of every record class
"""

__version__ = "0.1.0"
