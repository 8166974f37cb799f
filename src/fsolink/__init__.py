"""Desk-scale simulator for a rate-adaptive probabilistically shaped 64QAM
link over a time-varying free-space channel.

Layering: shaping builds the transmit side, channel realizes SNR traces and
waveform impairments, metrics scores received batches, airlut builds and
reads the SNR-to-AIR table, dsprx recovers symbols from impaired waveforms,
and control runs the three-scheme adaptation campaign on top of it all;
ccdm is a standalone distribution matcher that no link path calls.
"""

__version__ = "0.1.0"
