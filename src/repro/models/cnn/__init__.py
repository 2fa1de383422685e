"""CNN model zoo (Table 2, convolutional half)."""
